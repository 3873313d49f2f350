package serve

import (
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/serve/obs"
)

// Disaggregated serving (paper Rec. 3 taken to its deployment conclusion,
// and the PAPERS.md perception/generation-disaggregation line): the
// endpoint splits into a PREFILL pool that runs prompt processing and a
// DECODE pool that runs token generation, with a priced KV handoff between
// them. Each pool is a complete inner Endpoint — its own replicas,
// continuous batching, routing and (prefill only) prefix caches — so every
// scheduling behaviour the monolithic endpoint has is available per stage,
// and stage interference disappears by construction: a long prefill can no
// longer stall decode slots and vice versa.
//
// # Lifecycle
//
// A request arrives at the prefill pool exactly as it would at a monolithic
// endpoint (same admission, batching, cache pricing — the prefill pool's
// profile simply has DecodeRate 0, so batches cost only overhead+prefill).
// When its prefill batch completes, the request pays the KV Handoff
// (fixed latency + prompt tokens / transfer rate) and re-arrives at the
// decode pool as a promptless request carrying only its generation length;
// the decode pool's profile has Overhead and PrefillRate 0, so its batches
// cost only the decode term (with the usual batch slowdown at the DECODE
// pool's occupancy). In closed-loop serving Serve and ServeBatch both take
// one path (disaggState.serve): a single call or an explicit batch enters
// the prefill pool as one unit, and its members re-arrive at the decode
// pool as one unit again. In open-loop replay the decode queue is the
// standard (Priority, arrival, index) admission queue, so Request.Priority
// governs exactly where decode contention forms.
//
// # Accounting
//
// The parent endpoint's Stats() folds the two pools: flow sums add,
// Replicas and ReplicaRequests concatenate (prefill replicas first),
// per-stage splits land in PrefillService/DecodeService and
// PrefillWait/DecodeWait, and handoff totals in HandoffTime/HandoffTokens.
// BatchedSeqs reports the DECODE pool's occupancy (each request rides one
// batch per stage; decode occupancy is the one the monolithic number is
// comparable to, since decode dominates service time). The parent's
// latency/wait histograms hold END-TO-END values observed at serve time;
// continuous-batching joins restate completions within a stage (each inner
// pool keeps the monolithic as-served convention), but the parent's
// end-to-end histogram does not retroactively restate — the stage split is
// where the convention has to pick a side, and serve-time is the one that
// keeps closed-loop and open-loop parents identical.
//
// # Determinism
//
// Both pools are ordinary Endpoints driven by the same virtual timeline;
// the handoff is a pure function of prefill completion. Disaggregation off
// (both pools zero) never constructs this state, so monolithic configs are
// byte-identical to builds predating this file.
type disaggState struct {
	prefill *Endpoint
	decode  *Endpoint
	handoff Handoff
	// stats carries only what neither pool can see: the end-to-end
	// latency/wait distributions and the handoff totals. fold() grafts the
	// pools' sums around it.
	stats metrics.Serving
	// Closed-loop scratch reused across serve calls (the endpoint is not
	// concurrency-safe by contract): the prefill-stage results and the
	// decode-stage submissions, so a single disaggregated call allocates
	// nothing per request.
	ps     []llm.Served
	dcalls []llm.Call
}

// stageProfiles splits one pricing profile into its prefill-only and
// decode-only stage profiles. A FixedLatency profile prices the whole
// request as one constant; the prefill stage carries it and the decode
// stage is free (splitting a constant would double-charge).
func stageProfiles(p llm.Profile) (pre, dec llm.Profile) {
	pre = p
	pre.Name = p.Name + "/prefill"
	pre.DecodeRate = 0
	dec = p
	dec.Name = p.Name + "/decode"
	dec.Overhead = 0
	dec.PrefillRate = 0
	dec.FixedLatency = 0
	if p.FixedLatency > 0 {
		dec.DecodeRate = 0
	}
	return pre, dec
}

// stageConfig builds one pool's inner endpoint config. Routing, cache
// identity and the cached-prefill discount follow the parent; batching is
// the pool's own. The prefill pool inherits the parent's cache budgets
// when the pool doesn't set its own; the decode pool never caches (there
// is no prompt left to share — inheritCache is false and both budgets stay
// zero, which disables caching).
func stageConfig(parent Config, pool PoolConfig, profile llm.Profile, inheritCache bool) Config {
	c := Config{
		Profile:           profile,
		Replicas:          pool.Replicas,
		Routing:           parent.Routing,
		MaxBatch:          pool.MaxBatch,
		MaxWait:           pool.MaxWait,
		Identity:          parent.Identity,
		CachedPrefillFrac: parent.CachedPrefillFrac,
	}
	if inheritCache {
		c.CacheTokens, c.CacheEntries = pool.CacheTokens, pool.CacheEntries
		if c.CacheTokens == 0 && c.CacheEntries == 0 {
			c.CacheTokens, c.CacheEntries = parent.CacheTokens, parent.CacheEntries
		}
	}
	return c
}

// newDisagg builds the two stage pools behind a disaggregated parent. The
// parent endpoint keeps no replicas of its own; every Serve/Stats/Reset
// entry point dispatches through e.dis.
func newDisagg(cfg Config) *disaggState {
	pre, dec := stageProfiles(cfg.Profile)
	return &disaggState{
		prefill: New(stageConfig(cfg, cfg.Prefill, pre, true)),
		decode:  New(stageConfig(cfg, cfg.Decode, dec, false)),
		handoff: cfg.Handoff,
	}
}

// emitHandoff records one prefill→decode transfer on the parent's sink.
func (e *Endpoint) emitHandoff(req int64, agent string, t time.Duration, tokens int, dur time.Duration) {
	e.sink.Event(obs.Event{
		Kind: obs.KindHandoff, T: t, Shard: e.shard,
		Req: req, Agent: agent, Tokens: tokens, Dur: dur,
		Stage: "handoff",
	})
}

// serve is the closed-loop path for Serve and ServeBatch alike: the calls
// run through prefill → handoff → decode as one unit — one prefill batch
// (or a single call), then, handoffs priced per member, one decode
// submission, with each member's result written into out. A decode-stage
// submission is promptless (only the generation length survives the
// handoff), re-arriving at prefill completion plus the priced transfer;
// its queueing and batching then play out on the decode pool's own
// timeline. Members leave prefill together, so equal handoff costs
// re-arrive together and the decode pool batches them again. Each Served
// sums the stages; Decode covers the handoff plus the decode stage — the
// trailing window an async agent pipeline may overlap.
func (d *disaggState) serve(e *Endpoint, calls []llm.Call, out []llm.Served) {
	n := len(calls)
	if cap(d.ps) < n {
		d.ps = make([]llm.Served, n)
		d.dcalls = make([]llm.Call, n)
	}
	ps, dcalls := d.ps[:n], d.dcalls[:n]
	d.prefill.serveBatch(calls, ps)
	reqBase := d.prefill.reqID - int64(n) + 1
	for i, c := range calls {
		h := d.handoff.cost(ps[i].PromptTokens)
		handoffT := c.Arrival + ps[i].Latency
		if e.sink != nil {
			e.emitHandoff(reqBase+int64(i), c.Agent, handoffT, ps[i].PromptTokens, h)
		}
		d.stats.HandoffTime += h
		d.stats.HandoffTokens += ps[i].PromptTokens
		dcalls[i] = llm.Call{Agent: c.Agent, Arrival: handoffT + h, OutTokens: c.OutTokens}
	}
	d.decode.serveBatch(dcalls, out)
	for i := range calls {
		h := d.handoff.cost(ps[i].PromptTokens)
		lat := ps[i].Latency + h + out[i].Latency
		wait := ps[i].QueueWait + out[i].QueueWait
		d.stats.LatencyHist.Observe(lat)
		d.stats.QueueWaitHist.Observe(wait)
		out[i] = llm.Served{
			Latency: lat, QueueWait: wait, BatchSize: out[i].BatchSize,
			CachedTokens: ps[i].CachedTokens, PromptTokens: ps[i].PromptTokens,
			Decode: h + out[i].Latency,
		}
	}
}

// replayDisagg is the open-loop path, two passes of the one replay event
// loop: replay the whole trace on the prefill pool, then replay the
// handed-off requests on the decode pool.
// Stage-2 arrivals are prefill completions plus handoff cost; the decode
// pool's standard (Priority, arrival, index) admission queue is what makes
// Request.Priority a decode-scheduling policy. Completions merge the
// stages per request (PrefillDone/DecodeWait carry the split).
func replayDisagg(e *Endpoint, reqs []Request) ReplayResult {
	d := e.dis
	pres := replayOn(d.prefill, reqs)
	res := ReplayResult{
		Completions: make([]Completion, len(reqs)),
		Batches:     pres.Batches,
	}
	stage2 := make([]Request, len(reqs))
	for i := range reqs {
		pc := pres.Completions[i]
		h := d.handoff.cost(pc.PromptTokens)
		if e.sink != nil {
			e.emitHandoff(int64(i)+1, reqs[i].Agent, pc.Done, pc.PromptTokens, h)
		}
		d.stats.HandoffTime += h
		d.stats.HandoffTokens += pc.PromptTokens
		stage2[i] = Request{
			Agent: reqs[i].Agent, Priority: reqs[i].Priority,
			Arrival: pc.Done + h, OutTokens: reqs[i].OutTokens,
		}
	}
	dres := replayOn(d.decode, stage2)
	res.Batches += dres.Batches
	res.Makespan = dres.Makespan
	for i := range reqs {
		pc, dc := pres.Completions[i], dres.Completions[i]
		d.stats.LatencyHist.Observe(dc.Done - pc.Arrival)
		d.stats.QueueWaitHist.Observe(pc.QueueWait + dc.QueueWait)
		res.Completions[i] = Completion{
			Agent: pc.Agent, Arrival: pc.Arrival, Start: pc.Start,
			PrefillDone: pc.Done, Done: dc.Done,
			QueueWait: pc.QueueWait, DecodeWait: dc.QueueWait,
			BatchSize:    dc.BatchSize,
			PromptTokens: pc.PromptTokens, CachedTokens: pc.CachedTokens,
		}
	}
	res.Stats = e.Stats()
	return res
}

// fold merges the two pools' statistics into the parent's Serving view:
// flow sums add, the stage splits land in the Prefill*/Decode* fields, and
// the end-to-end distributions plus handoff totals come from d.stats (see
// the type comment for the BatchedSeqs and histogram conventions).
func (d *disaggState) fold() metrics.Serving {
	pf := d.prefill.Stats()
	dc := d.decode.Stats()
	s := d.stats
	s.Requests = pf.Requests
	s.Replicas = pf.Replicas + dc.Replicas
	s.QueueWait = pf.QueueWait + dc.QueueWait
	s.Service = pf.Service + dc.Service
	s.BatchedSeqs = dc.BatchedSeqs
	s.PrefillTokens = pf.PrefillTokens
	s.CachedTokens = pf.CachedTokens
	s.CacheTokensPeak = pf.CacheTokensPeak
	if dc.CacheTokensPeak > s.CacheTokensPeak {
		s.CacheTokensPeak = dc.CacheTokensPeak
	}
	s.EvictedTokens = pf.EvictedTokens + dc.EvictedTokens
	s.PrefillService = pf.Service
	s.DecodeService = dc.Service
	s.PrefillWait = pf.QueueWait
	s.DecodeWait = dc.QueueWait
	s.ReplicaRequests = make([]int, 0, len(pf.ReplicaRequests)+len(dc.ReplicaRequests))
	s.ReplicaRequests = append(s.ReplicaRequests, pf.ReplicaRequests...)
	s.ReplicaRequests = append(s.ReplicaRequests, dc.ReplicaRequests...)
	s.ReplicaTime = addSpan(pf.ReplicaTime, dc.ReplicaTime)
	s.ScaleUps = pf.ScaleUps + dc.ScaleUps
	s.ScaleDowns = pf.ScaleDowns + dc.ScaleDowns
	return s
}

// stageSink tags one pool's flight-recorder events with its stage before
// forwarding to the shared sink. The decode pool's submit events are
// dropped entirely: a decode-stage submission is promptless (the schema
// requires submit events to carry a prompt chain), and TraceRequests must
// reconstruct each request exactly once — from its prefill submission.
type stageSink struct {
	sink       obs.Sink
	stage      string
	dropSubmit bool
}

func (s stageSink) Event(ev obs.Event) {
	if s.dropSubmit && ev.Kind == obs.KindSubmit {
		return
	}
	ev.Stage = s.stage
	s.sink.Event(ev)
}
