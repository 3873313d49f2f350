package serve

import (
	"fmt"
	"time"

	"embench/internal/prompt"
	"embench/internal/serve/obs"
)

// This file is the flight-recorder seam (see internal/serve/obs): the sink
// plumbing and every event emitter. All serving-path call sites guard with
// `if e.sink != nil`, so the nil-sink default costs nothing — no
// allocations, no behaviour change, goldens byte-identical — while an
// attached sink sees the full request lifecycle: submit, fleet admit,
// route (with per-replica pressure scores), batch start/join/seal, cache
// hit/miss/evict/flush, autoscaler ticks and completions.
//
// Emitters only READ endpoint state (cache probes, eviction counters,
// replica indices); instrumentation can never perturb the simulation.

// SetSink attaches a flight-recorder sink to the endpoint and emits the
// opening config event; nil detaches (the zero-cost default). Like the
// rest of the endpoint it is not concurrency-safe: attach before serving
// begins. Fleets forward through Fleet.SetSink / ShardedFleet.SetSink,
// which must likewise be called before any episode runs.
func (e *Endpoint) SetSink(s obs.Sink) { e.setSinkShard(s, 0) }

// setSinkShard is SetSink with an explicit shard tag (ShardedFleet labels
// each shard's endpoint so one recorder can absorb all shards).
func (e *Endpoint) setSinkShard(s obs.Sink, shard int) {
	e.sink, e.shard = s, shard
	if e.dis != nil {
		// A disaggregated parent wires the shared sink to its stage pools
		// through stageSink tags; the pools' own config events (Stage
		// "prefill"/"decode") describe the deployment, so the parent emits
		// none of its own. The parent keeps the raw sink for handoff and
		// client-policy events.
		var pre, dec obs.Sink
		if s != nil {
			pre, dec = stageSink{sink: s, stage: "prefill"}, stageSink{sink: s, stage: "decode", dropSubmit: true}
		}
		e.dis.prefill.setSinkShard(pre, shard)
		e.dis.decode.setSinkShard(dec, shard)
		return
	}
	if s == nil {
		return
	}
	s.Event(obs.Event{
		Kind: obs.KindConfig, Shard: shard,
		Replica: len(e.replicas), Active: e.active,
		Batch: e.cfg.MaxBatch, Tokens: e.cfg.CacheTokens,
		Policy: string(e.cfg.Routing),
	})
}

// Sink reports the attached flight-recorder sink (nil when detached).
func (e *Endpoint) Sink() obs.Sink { return e.sink }

// rindex reports r's index in the replica pool. Sink-path only: O(replicas)
// per call, never taken on the nil-sink hot path.
func (e *Endpoint) rindex(r *replica) int {
	for i := range e.replicas {
		if &e.replicas[i] == r {
			return i
		}
	}
	return -1
}

// nextReq issues the next request id. Sink-path only; ids are 1-based and
// per-endpoint, so within one recorded source they are unique and stable.
func (e *Endpoint) nextReq() int64 {
	e.reqID++
	return e.reqID
}

// obsSections copies a prompt's sections into a submit event's form.
func obsSections(p prompt.Prompt) []obs.Section {
	secs := make([]obs.Section, len(p.Sections))
	for i, s := range p.Sections {
		secs[i] = obs.Section{Name: s.Name, Text: s.Text, Tokens: s.Tokens, Droppable: s.Droppable}
	}
	return secs
}

// emitSubmit records a request entering the endpoint, carrying everything
// trace-driven replay needs to reconstruct it (TraceRequests). secs is the
// prompt in obsSections form; replay shares one copy between the submits
// of a prompt, so it is read-only once emitted.
func (e *Endpoint) emitSubmit(req int64, agent string, arrival time.Duration, secs []obs.Section, out, priority int) {
	e.sink.Event(obs.Event{
		Kind: obs.KindSubmit, T: arrival, Shard: e.shard,
		Req: req, Agent: agent, Out: out, Priority: priority,
		Sections: secs,
	})
}

// emitRoute records a placement decision with every active replica's
// capacity-adjusted affinity score at decision time — called before
// admission mutates the cache, so the scores are exactly what the router
// compared.
func (e *Endpoint) emitRoute(req int64, t time.Duration, r *replica, k promptKey) {
	scores := make([]int, e.active)
	for i := range e.replicas[:e.active] {
		scores[i], _ = affinityScore(&e.replicas[i], k)
	}
	e.sink.Event(obs.Event{
		Kind: obs.KindRoute, T: t, Shard: e.shard, Replica: e.rindex(r),
		Req: req, Policy: string(e.cfg.Routing), Scores: scores,
		Cached: r.cache.matchKey(k), Tokens: k.total,
	})
}

// emitCache records one admission's cache pricing on a replica.
func (e *Endpoint) emitCache(req int64, t time.Duration, ri, cached, total int) {
	kind := obs.KindCacheMiss
	if cached > 0 {
		kind = obs.KindCacheHit
	}
	e.sink.Event(obs.Event{
		Kind: kind, T: t, Shard: e.shard, Replica: ri,
		Req: req, Cached: cached, Tokens: total,
	})
}

// emitEvict records capacity-eviction churn across an admission on
// replica ri: evBefore is the replica's eviction counter before the
// admission (zero growth is dropped).
func (e *Endpoint) emitEvict(t time.Duration, ri, evBefore int) {
	_, _, ev := e.replicas[ri].cache.stats()
	if ev <= evBefore {
		return
	}
	e.sink.Event(obs.Event{
		Kind: obs.KindCacheEvict, T: t, Shard: e.shard, Replica: ri, Tokens: ev - evBefore,
	})
}

// emitBatchStart records a batch launch: size, effective prefill tokens,
// service time and its decode share.
func (e *Endpoint) emitBatchStart(t time.Duration, ri, n int, totalEff float64, maxOut int, service time.Duration) {
	e.sink.Event(obs.Event{
		Kind: obs.KindBatchStart, T: t, Shard: e.shard, Replica: ri,
		Batch: n, Tokens: int(totalEff), Out: maxOut, Dur: service,
		Decode: e.decodeShare(n, totalEff, service),
	})
}

// emitComplete records a served request with its as-served outcome (see the
// obs package comment for the join-restatement convention).
func (e *Endpoint) emitComplete(req int64, agent string, ri int, end, lat, wait time.Duration, batch, cached, total int) {
	e.sink.Event(obs.Event{
		Kind: obs.KindComplete, T: end, Shard: e.shard, Replica: ri,
		Req: req, Agent: agent, Dur: lat, Wait: wait,
		Batch: batch, Cached: cached, Tokens: total,
	})
}

// emitRetry records a deadline-triggered re-issue entering admission:
// attempt is the retry number (1 = first retry), backoff the seeded delay
// it waited after the timeout.
func (e *Endpoint) emitRetry(req int64, t, backoff time.Duration, attempt int) {
	e.sink.Event(obs.Event{
		Kind: obs.KindRetry, T: t, Shard: e.shard,
		Req: req, Dur: backoff, Batch: attempt,
	})
}

// emitHedge records a duplicate hedged attempt entering admission.
func (e *Endpoint) emitHedge(req int64, t time.Duration) {
	e.sink.Event(obs.Event{Kind: obs.KindHedge, T: t, Shard: e.shard, Req: req})
}

// emitShed records a load-shedding rejection with the priority class the
// decision honored.
func (e *Endpoint) emitShed(req int64, t time.Duration, priority int) {
	e.sink.Event(obs.Event{
		Kind: obs.KindShed, T: t, Shard: e.shard, Req: req, Priority: priority,
	})
}

// emitTimeout records one attempt's deadline expiring before its batch
// launched.
func (e *Endpoint) emitTimeout(req int64, t, deadline time.Duration) {
	e.sink.Event(obs.Event{
		Kind: obs.KindTimeout, T: t, Shard: e.shard, Req: req, Dur: deadline,
	})
}

// SetSink attaches a flight-recorder sink to the fleet's shared endpoint.
// Call before any episode issues a request (like SetGate). Fleet-merge
// admissions appear as admit events, each immediately followed by the
// endpoint events of the admitted request — the whole merged stream is
// emitted under the fleet mutex, so one fleet's event order is as
// deterministic as its admission order.
func (f *Fleet) SetSink(s obs.Sink) { f.ep.SetSink(s) }

// SetSink attaches one shared sink to every shard's endpoint, tagging each
// shard's events with its index. Shards emit concurrently, so cross-shard
// interleaving (Seq order) is not deterministic — filter by Shard, or
// sample per shard and merge, for reproducible views.
func (sf *ShardedFleet) SetSink(s obs.Sink) {
	for k, f := range sf.shards {
		f.ep.setSinkShard(s, k)
	}
}

// TraceRequests reconstructs an open-loop request trace from a recorded
// event stream: one Request per submit event, in stream order, with
// arrival offsets, prompt section chains (text included, so content-hash
// cache identity reproduces) and generation lengths. This closes the
// record-once-replay-many loop: capture a closed-loop episode with a
// Recorder, persist it as JSONL, and feed it back through Replay.
//
// Replay reproduces the live run's metrics.Serving exactly only when the
// recorded stream's serving decisions cannot depend on information the
// open-loop event loop lacks, and TraceRequests enforces the two
// machine-checkable preconditions instead of silently misreconstructing:
//
//   - Submissions must arrive in non-decreasing virtual time within each
//     shard. That holds for one closed-loop client (a single-agent or
//     centralized episode) and for a merged fleet of such episodes. A
//     decentralized team submits in program order, each agent on its own
//     clock, so its stream — and any fleet of such episodes — goes back in
//     time, and the reconstruction would be unreproducible. Error, not
//     guess.
//   - No recorded endpoint may have MaxBatch > 1 (config events carry it):
//     closed-loop join windows race against future arrivals the open-loop
//     replay cannot see, so the trace under-determines the batches.
//
// Routing divergence (cache-affinity routes among ALL replicas at
// submission, replay among the IDLE ones at launch) is not detectable from
// the stream and remains a documented caveat: such replays are faithful
// open-loop reruns of the same trace, just not bit-equal.
func TraceRequests(events []obs.Event) ([]Request, error) {
	var out []Request
	lastArrival := map[int]time.Duration{}
	for i, ev := range events {
		switch ev.Kind {
		case obs.KindConfig:
			if ev.Batch > 1 {
				return nil, fmt.Errorf("serve: trace event %d: recorded endpoint (shard %d, stage %q) has MaxBatch %d > 1; join-window races cannot be reconstructed from a trace — re-record with MaxBatch 1", i, ev.Shard, ev.Stage, ev.Batch)
			}
		case obs.KindSubmit:
			if last, ok := lastArrival[ev.Shard]; ok && ev.T < last {
				return nil, fmt.Errorf("serve: trace event %d: submit at %v precedes the previous submit at %v on shard %d; non-monotone submissions mean agents on separate clocks — record a single client", i, ev.T, last, ev.Shard)
			}
			lastArrival[ev.Shard] = ev.T
			secs := make([]prompt.Section, len(ev.Sections))
			for j, s := range ev.Sections {
				secs[j] = prompt.Section{Name: s.Name, Text: s.Text, Tokens: s.Tokens, Droppable: s.Droppable}
			}
			out = append(out, Request{
				Agent: ev.Agent, Priority: ev.Priority, Arrival: ev.T,
				Prompt: prompt.Prompt{Sections: secs}, OutTokens: ev.Out,
			})
		}
	}
	return out, nil
}

// ReplayObserved is Replay with a flight-recorder sink attached to the
// replaying endpoint (see replayOn for the events). A nil sink is exactly
// Replay.
func ReplayObserved(cfg Config, reqs []Request, sink obs.Sink) ReplayResult {
	e := New(cfg)
	if sink != nil {
		e.SetSink(sink)
	}
	return replayOn(e, reqs)
}
