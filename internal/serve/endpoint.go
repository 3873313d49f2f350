package serve

import (
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/prompt"
	"embench/internal/serve/obs"
)

// replica is one model instance's timeline position: when it frees, the
// shape of its in-flight frontier batch (for continuous-batching joins),
// and its own prefix/KV cache — cache state is per instance, which is what
// makes cache-affinity routing meaningful.
type replica struct {
	cache      *prefixCache
	requests   int // requests this replica has served (placement spread)
	freeAt     time.Duration
	batchStart time.Duration
	batchEnd   time.Duration
	batchN     int
	batchTok   float64 // effective (cache-discounted) prefill tokens
	batchOut   int     // longest generation in the batch
	// Stats already recorded for the in-flight batch's members, so joins
	// can retroactively restate them at the batch's final size (keeping
	// closed-loop accounting identical to Replay's, where every member
	// reports the whole batch's size and service time).
	recSeqs    int
	recService time.Duration
	// lats holds the frontier batch members' end-to-end latencies at the
	// batch's CURRENT completion time. They cannot go into the latency
	// histogram yet: a continuous-batching join extends the batch and
	// restates every member's completion, and the histogram — unlike the
	// Service sum — cannot subtract a bucketed value back out. So final
	// latencies are buffered here, shifted on join, and folded into the
	// histogram only once the frontier is sealed (replaced by the next
	// batch, or snapshotted by Stats).
	lats []time.Duration
}

// startBatch rewrites the replica's frontier for a freshly launched batch,
// preserving the replica's cache, request count and (emptied) latency
// buffer across the rewrite. Callers fold the old frontier's latencies
// first — see Endpoint.sealFrontier.
func (r *replica) startBatch(start, end time.Duration, n int, tok float64, out int, service time.Duration) {
	cache, requests, lats := r.cache, r.requests, r.lats
	*r = replica{
		cache: cache, requests: requests, lats: lats[:0],
		freeAt: end, batchStart: start, batchEnd: end,
		batchN: n, batchTok: tok, batchOut: out,
		recSeqs: n * n, recService: time.Duration(n) * service,
	}
}

// Endpoint is one shared serving deployment. It is not safe for concurrent
// use by itself: a single simulated episode may own one directly (the
// per-episode closed loop of fig8), while cross-episode sharing goes
// through Fleet, which serializes and deterministically orders access.
type Endpoint struct {
	cfg      Config
	replicas []replica
	stats    metrics.Serving
	// Autoscaler state (see autoscale.go). active is the routable prefix
	// of replicas — replicas[:active] take traffic, the rest are parked.
	// With autoscaling disabled active == len(replicas) always, so every
	// routing loop over the active slice is byte-identical to the
	// fixed-replica behaviour.
	active   int
	asNext   time.Duration // next evaluation tick (enabled only)
	asLast   time.Duration // previous tick (replica-time integral anchor)
	busyAcc  time.Duration // cumulative in-batch replica time
	lastBusy time.Duration // busyAcc at the previous evaluation
	// Closed-loop scratch, reused across calls (the endpoint is not
	// concurrency-safe by contract): Serve hands serveBatch the one-element
	// oneCall/oneServed slices, so the unbatched hot path allocates nothing
	// per request. serveBatch keeps the members' hashed prompts in bkeys and
	// their generation lengths in bouts, and slices their chains out of one
	// shared section-key arena, sized up front so appending never
	// reallocates under an already-handed-out promptKey. mbuf is
	// admitBatch's per-member pricing.
	oneCall   [1]llm.Call
	oneServed [1]llm.Served
	bkeys     []promptKey
	bouts     []int
	barena    []sectionKey
	mbuf      []admitted
	seen      map[uint64]bool // penalty's dedup scratch
	// Flight-recorder seam (see obs.go / internal/serve/obs): nil sink is
	// the zero-cost default — every emission below is guarded, so the
	// un-instrumented path is byte-identical and allocation-free. shard
	// tags events when a ShardedFleet shares one sink; reqID numbers
	// requests within this source (sink-path only).
	sink  obs.Sink
	shard int
	reqID int64
	// fx, when non-nil, is the fault-injection state (see faults.go): the
	// per-replica crash and straggler schedules. nil — the zero-value
	// Faults default — leaves every path byte-identical to fault-free
	// builds, same contract as sink/dis.
	fx *faultState
	// dis, when non-nil, makes this endpoint a disaggregated parent: every
	// serving entry point dispatches to the prefill/decode stage pools (see
	// disagg.go), stats holds only what the pools cannot see, and the
	// fields above except sink/shard and the oneCall/oneServed scratch go
	// unused. nil is the default for every monolithic config.
	dis *disaggState
}

// Compile-time checks: an endpoint is a drop-in serving backend for llm
// clients, including explicitly aggregated step-phase batches.
var (
	_ llm.Backend      = (*Endpoint)(nil)
	_ llm.BatchBackend = (*Endpoint)(nil)
)

// New builds an endpoint from cfg (zero fields defaulted). A config with
// both Prefill and Decode pools set builds a disaggregated endpoint — two
// inner stage pools behind one Backend-compatible front (see disagg.go).
// New panics on a config Validate rejects; callers that want a clean error
// (the CLI) should Validate first.
func New(cfg Config) *Endpoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Disaggregated() {
		d := cfg.withDefaults()
		d.Replicas = 0 // the monolithic pool does not exist
		// Each pool bounds the autoscale policy by its own replica count,
		// so the pools take it before the parent's defaults clamp it.
		d.Autoscale = cfg.Autoscale
		return &Endpoint{cfg: d, dis: newDisagg(d)}
	}
	cfg = cfg.withDefaults()
	e := &Endpoint{cfg: cfg, replicas: make([]replica, cfg.Replicas)}
	e.Reset()
	return e
}

// TryNew is New with the panic turned into an error: it validates cfg and
// builds the endpoint, so flag-driven callers (the CLI, experiment sweeps)
// can reject a bad config cleanly instead of crashing.
func TryNew(cfg Config) (*Endpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// chainInto hashes a prompt's prefix chain under the endpoint's configured
// cache identity, reusing buf's backing array.
func (e *Endpoint) chainInto(buf []sectionKey, p prompt.Prompt) promptKey {
	return chainKeysIdent(buf, p, e.cfg.Identity)
}

// Config reports the endpoint's effective (defaulted) configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// Stats reports accumulated serving statistics, including the per-replica
// request spread and the cache-memory rollup (peak live tokens across
// replicas, total capacity-evicted tokens). In-flight frontier batches'
// member latencies are folded into the snapshot's histogram, not the
// endpoint's, so a later join can still restate them.
func (e *Endpoint) Stats() metrics.Serving {
	if e.dis != nil {
		return e.dis.fold(e.stats)
	}
	s := e.stats
	s.ReplicaRequests = make([]int, len(e.replicas))
	for i := range e.replicas {
		s.ReplicaRequests[i] = e.replicas[i].requests
		_, peak, evicted := e.replicas[i].cache.stats()
		s.EvictedTokens += evicted
		if peak > s.CacheTokensPeak {
			s.CacheTokensPeak = peak
		}
		for _, l := range e.replicas[i].lats {
			s.LatencyHist.Observe(l)
		}
	}
	return s
}

// sealFrontier folds a replica's frontier-batch member latencies into the
// stats histogram and clears the buffer: the frontier is being replaced
// (or the replica retired), so those completions can no longer be restated
// by a join.
func (e *Endpoint) sealFrontier(r *replica) {
	if e.sink != nil && len(r.lats) > 0 {
		e.sink.Event(obs.Event{
			Kind: obs.KindBatchSeal, T: r.batchEnd, Shard: e.shard,
			Replica: e.rindex(r), Batch: len(r.lats),
		})
	}
	for _, l := range r.lats {
		e.stats.LatencyHist.Observe(l)
	}
	r.lats = r.lats[:0]
}

// ServingStats implements the serving-statistics seam the episode runners
// read at episode end; for a dedicated endpoint it is simply Stats.
func (e *Endpoint) ServingStats() metrics.Serving { return e.Stats() }

// Reset clears timeline, caches, statistics and autoscaler state for reuse,
// keeping each replica cache's storage; New builds every endpoint through
// it.
func (e *Endpoint) Reset() {
	if e.dis != nil {
		e.dis.prefill.Reset()
		e.dis.decode.Reset()
		e.stats = metrics.Serving{}
		e.reqID = 0
		return
	}
	for i := range e.replicas {
		c := e.replicas[i].cache
		if c == nil {
			c = newPrefixCache(e.cfg.CacheEntries, e.cfg.CacheTokens)
		}
		c.reset()
		e.replicas[i] = replica{cache: c}
	}
	e.stats = metrics.Serving{Replicas: e.cfg.Replicas}
	e.active = e.cfg.Replicas
	e.asNext, e.asLast, e.busyAcc, e.lastBusy = 0, 0, 0, 0
	e.reqID = 0
	if e.cfg.Autoscale.enabled() {
		e.active = e.cfg.Autoscale.Min
		e.asNext = e.cfg.Autoscale.Interval
	}
	if e.cfg.Faults.enabled() {
		// Fresh streams: a reset endpoint replays the same fault schedule
		// on the same deployment slots.
		first := 0
		if e.fx != nil {
			first = e.fx.first
		}
		e.fx = newFaultState(e.cfg.Faults, e.cfg.Replicas, first)
	}
}

// Serve is the closed-loop entry point: one live request, submitted at the
// calling agent's virtual time, resolved immediately against the endpoint's
// current timeline. It implements llm.Backend, and is serveBatch over a
// batch of one.
//
// Admission is in submission order (the order episode code issues calls, or
// the globally merged virtual-time order under a Fleet), which is
// deterministic; arrival timestamps still drive queueing delay and
// batching, so contention emerges whenever per-agent clocks overlap.
// Continuous batching appears as a join window: a request arriving within
// MaxWait of the frontier batch's start joins it, paying its own prefill
// and the incremental decode slowdown (see join). The routing policy picks
// the replica (see RoutingPolicy).
func (e *Endpoint) Serve(c llm.Call) llm.Served {
	e.oneCall[0] = c
	e.serveBatch(e.oneCall[:], e.oneServed[:])
	return e.oneServed[0]
}

// ServeBatch serves an explicitly aggregated batch (llm.BatchBackend): the
// calls launch together as one batch on one replica, starting once the
// last member has arrived and the replica frees. Client-side aggregation
// supersedes the server's join cap — the batch is one request, so MaxBatch
// does not split it — but a later join-window arrival may still ride along
// while slots remain. Results are in submission order.
func (e *Endpoint) ServeBatch(calls []llm.Call) []llm.Served {
	if len(calls) == 0 {
		return nil
	}
	out := make([]llm.Served, len(calls))
	e.serveBatch(calls, out)
	return out
}

// batchArrival is an explicit batch's admission time: its last member's
// arrival (the batch cannot launch before it is complete).
func batchArrival(calls []llm.Call) time.Duration {
	t := calls[0].Arrival
	for _, c := range calls[1:] {
		t = max(t, c.Arrival)
	}
	return t
}

// serveBatch is the one closed-loop admission path, behind Serve and
// ServeBatch alike, writing each member's result into out (len(out) ==
// len(calls) > 0). It catches faults and the autoscaler up to the batch's
// arrival, hashes every member's prefix chain exactly once (routing probes
// and admission pricing share the keys), routes, and then either joins a
// single call onto the routed replica's in-flight batch or launches the
// calls as a new batch.
func (e *Endpoint) serveBatch(calls []llm.Call, out []llm.Served) {
	if e.dis != nil {
		e.dis.serve(e, calls, out)
		return
	}
	arrival := batchArrival(calls)
	if e.fx != nil {
		// Apply every crash window that has begun by the arrival watermark
		// first, so routing and the autoscaler below see live replicas only.
		e.applyFaults(arrival)
	}
	e.maybeAutoscale(arrival)
	if cap(e.bkeys) < len(calls) {
		e.bkeys = make([]promptKey, len(calls))
		e.bouts = make([]int, len(calls))
	}
	keys, outs := e.bkeys[:len(calls)], e.bouts[:len(calls)]
	secs := 0
	for _, c := range calls {
		secs += len(c.Prompt.Sections)
	}
	if cap(e.barena) < secs {
		e.barena = make([]sectionKey, 0, secs)
	}
	arena := e.barena[:0]
	for i, c := range calls {
		keys[i] = e.chainInto(arena[len(arena):len(arena):cap(arena)], c.Prompt)
		arena = arena[:len(arena)+len(keys[i].secs)]
		outs[i] = c.OutTokens
	}
	r := e.route(arrival, keys, outs[0])
	var req0 int64
	if e.sink != nil {
		req0 = e.reqID + 1
		for _, c := range calls {
			e.emitSubmit(e.nextReq(), c.Agent, c.Arrival, obsSections(c.Prompt), c.OutTokens, 0)
		}
		e.emitRoute(req0, arrival, r, keys[0])
	}
	// Only a single call joins the in-flight frontier batch, when the
	// window allows. Under fault injection a join must also prove the
	// extended batch still ends before the replica's next scheduled crash
	// (joinSafe probes without mutating); an unsafe join falls through to
	// the new-batch path, whose crash-retry loop re-routes the request.
	if c := calls[0]; len(calls) == 1 && e.cfg.MaxBatch > 1 && r.batchN > 0 && r.batchN < e.cfg.MaxBatch &&
		c.Arrival <= r.batchStart+e.cfg.MaxWait && r.freeAt > c.Arrival &&
		(e.fx == nil || e.joinSafe(r, keys[0], c.OutTokens)) {
		out[0] = e.join(r, c, keys[0], req0)
		return
	}
	e.launch(r, arrival, calls, keys, outs, req0, out)
}

// join admits the single call c, with hashed prompt k and request id req
// (sink path only), into r's in-flight frontier batch: it pays its own
// prefill and the incremental decode slowdown, and every member's
// completion is restated to the extended batch's end.
func (e *Endpoint) join(r *replica, c llm.Call, k promptKey, req int64) llm.Served {
	var ri, evBefore int
	if e.sink != nil {
		ri = e.rindex(r)
		_, _, evBefore = r.cache.stats()
	}
	eff, cached, total := e.promptCostOn(r, k)
	end := e.joinedEnd(r, eff, c.OutTokens)
	r.requests++
	r.batchN++
	r.batchTok += eff
	if c.OutTokens > r.batchOut {
		r.batchOut = c.OutTokens
	}
	// The join restates every member's completion to the new end: shift
	// the buffered final latencies by the extension before appending the
	// joiner's own.
	for i := range r.lats {
		r.lats[i] += end - r.batchEnd
	}
	r.lats = append(r.lats, end-c.Arrival)
	e.busyAcc += end - r.batchEnd
	if e.sink != nil {
		e.emitCache(req, c.Arrival, ri, cached, total)
		e.emitEvict(c.Arrival, ri, evBefore)
		e.sink.Event(obs.Event{
			Kind: obs.KindBatchJoin, T: c.Arrival, Shard: e.shard,
			Replica: ri, Req: req, Batch: r.batchN, Dur: end - r.batchEnd,
		})
	}
	r.batchEnd, r.freeAt = end, end
	wait := time.Duration(0)
	if c.Arrival < r.batchStart {
		wait = r.batchStart - c.Arrival
	}
	// Restate the batch's stats at its new size: every member — the
	// already-reported ones included — rode a batch of batchN sequences
	// taking (end - start) each.
	svc := time.Duration(r.batchN)*(end-r.batchStart) - r.recService
	seqs := r.batchN*r.batchN - r.recSeqs
	e.record(svc, wait, seqs, cached, total)
	r.recService += svc
	r.recSeqs += seqs
	if e.sink != nil {
		e.emitComplete(req, c.Agent, ri, end, end-c.Arrival, wait, r.batchN, cached, total)
	}
	// The member's decode share is the extended batch's, clamped to its
	// own as-served latency (a late joiner's latency can be shorter than
	// the batch span it rode).
	dec := min(e.decodeShare(r.batchN, r.batchTok, end-r.batchStart), end-c.Arrival)
	return llm.Served{
		Latency: end - c.Arrival, QueueWait: wait,
		BatchSize: r.batchN, CachedTokens: cached, PromptTokens: total,
		Decode: dec,
	}
}

// launch is the closed-loop new-batch path shared by Serve and ServeBatch:
// it starts calls — keys and outs are their hashed prompts and generation
// lengths — as one fresh batch on the routed replica r, admitted at
// arrival, and writes each member's Served into out. The batch queues
// behind r's frontier. Under fault injection a crash window opening while
// r sits idle (or warms up after a scale-up) pushes the start back, and a
// batch whose service span hits a scheduled crash dies whole: its members
// re-enter admission at the crash instant, routing again among the
// surviving replicas (deterministically: the schedule is seeded), and
// their cache events carry that re-admission instant. req0 is the first
// member's request id; the others follow consecutively (sink path only).
func (e *Endpoint) launch(r *replica, arrival time.Duration, calls []llm.Call, keys []promptKey, outs []int, req0 int64, out []llm.Served) {
	n := len(calls)
	var (
		start, service time.Duration
		members        []admitted
		totalEff       float64
		maxOut         int
		ri, evBefore   int
	)
	for {
		start = arrival
		if r.freeAt > start {
			start = r.freeAt
		}
		if e.fx != nil {
			e.applyIdleCrashes(r, e.rindex(r), start)
			if r.freeAt > start {
				start = r.freeAt
			}
		}
		if e.sink != nil {
			ri = e.rindex(r)
			_, _, evBefore = r.cache.stats()
		}
		service, members, totalEff, maxOut = e.admitBatch(r, keys, outs)
		if e.fx == nil {
			break
		}
		fi := e.rindex(r)
		f := e.stragFactor(fi, start)
		if f > 1 {
			service = time.Duration(float64(service) * f)
		}
		w, hit := e.crashIn(fi, start+service)
		if !hit {
			e.fx.clocks[fi].batchFactor = f
			break
		}
		// Undo the admission the crash voided: the replica never served the
		// members (its count reverts), but the span it burned until the
		// crash is real occupancy — the autoscaler sees failures as scale-up
		// pressure. crashReplica flushes the cache, erasing the admission's
		// inserted prefixes along with the warm state.
		r.requests -= n
		e.busyAcc += w.start - start
		e.crashReplica(r, fi, w, n)
		e.applyFaults(w.start)
		arrival = w.start
		r = e.route(arrival, keys, outs[0])
		if e.sink != nil {
			e.emitRoute(req0, arrival, r, keys[0])
		}
	}
	end := start + service
	e.sealFrontier(r)
	r.startBatch(start, end, n, totalEff, maxOut, service)
	e.busyAcc += service
	if e.sink != nil {
		for i := range members {
			e.emitCache(req0+int64(i), arrival, ri, members[i].cached, members[i].total)
		}
		e.emitEvict(arrival, ri, evBefore)
		e.emitBatchStart(start, ri, n, totalEff, maxOut, service)
	}
	dec := e.decodeShare(n, totalEff, service)
	for i, c := range calls {
		wait := start - c.Arrival
		r.lats = append(r.lats, end-c.Arrival)
		e.record(service, wait, n, members[i].cached, members[i].total)
		if e.sink != nil {
			e.emitComplete(req0+int64(i), c.Agent, ri, end, end-c.Arrival, wait, n, members[i].cached, members[i].total)
		}
		out[i] = llm.Served{
			Latency: end - c.Arrival, QueueWait: wait,
			BatchSize: n, CachedTokens: members[i].cached,
			PromptTokens: members[i].total, Decode: dec,
		}
	}
}

// decodeShare is the decode-stage share of a batch of n sequences with tok
// effective prefill tokens served in service: the service time minus the
// same batch priced at zero output, never negative.
func (e *Endpoint) decodeShare(n int, tok float64, service time.Duration) time.Duration {
	return max(service-e.cfg.Profile.BatchServiceTime(n, tok, 0), 0)
}

// joinedEnd prices r's in-flight frontier batch extended by one joiner
// paying eff effective prefill tokens and generating out tokens: the
// extended batch's completion time, never earlier than the current one.
// The extension pays the straggler factor the batch launched under. Both
// the join itself and the fault-path joinSafe probe price through it.
func (e *Endpoint) joinedEnd(r *replica, eff float64, out int) time.Duration {
	if r.batchOut > out {
		out = r.batchOut
	}
	svc := e.cfg.Profile.BatchServiceTime(r.batchN+1, r.batchTok+eff, out)
	if e.fx != nil {
		if f := e.fx.clocks[e.rindex(r)].batchFactor; f > 1 {
			svc = time.Duration(float64(svc) * f)
		}
	}
	if end := r.batchStart + svc; end > r.batchEnd {
		return end
	}
	return r.batchEnd
}

// record folds one served request into the running statistics. service
// and batchN are its additions to the Service and BatchedSeqs sums — a
// join passes the restatement of the whole batch instead. Queue waits go
// straight into the histogram — they are final at admission and never
// restated; end-to-end latencies ride the replica's frontier buffer
// instead (see replica.lats).
func (e *Endpoint) record(service, wait time.Duration, batchN, cached, total int) {
	e.stats.Requests++
	e.stats.QueueWait += wait
	e.stats.QueueWaitHist.Observe(wait)
	e.stats.Service += service
	e.stats.BatchedSeqs += batchN
	e.stats.PrefillTokens += total
	e.stats.CachedTokens += cached
}
