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
// continuous batching, routing, fault schedule, autoscaler and (prefill
// only) prefix caches — so a long prefill can no longer stall decode slots
// and vice versa. Disaggregation off (both pools zero) never constructs
// this state.
//
// # Lifecycle
//
// A request's prefill batch costs overhead+prefill (the prefill profile
// has DecodeRate 0). It then pays the KV Handoff (fixed latency + prompt
// tokens / transfer rate) and re-arrives at the decode pool as a
// promptless request carrying only its generation length (the decode
// profile has Overhead and PrefillRate 0). In closed-loop serving a single
// call or an explicit batch enters the prefill pool as one unit, and its
// members re-arrive at the decode pool as one unit again (serve).
//
// Open-loop replay runs both pools in its one event loop (replay.go), each
// with its own (Priority, arrival, index) admission queue. A prefill
// completion puts an entry on the loop's enter calendar at its end plus
// the handoff cost; there the loop queues the decode attempt, in the
// arrivals category of the instant, same-instant handoffs in request
// order. Faults and the autoscaler act per pool: each pool has its own
// fault schedule (slots numbered prefill first, as in ReplicaRequests) and
// scales within its own replica count. Client policies act on the parent:
//
//   - A deadline measures how long an attempt waits in the queue of the
//     stage it is in.
//   - Retries and hedges re-enter the prefill pool.
//   - Shedding acts at prefill admission.
//   - A crash victim re-enters the first stage, prefill, because its KV
//     cache is lost with the replica; it keeps its attempt arrival.
//
// # Accounting
//
// The parent's Stats() folds the two pools (fold): flow sums add, Replicas
// and ReplicaRequests concatenate (prefill replicas first), and the stage
// splits land in the Prefill*/Decode* fields. BatchedSeqs reports the
// DECODE pool's occupancy, the one comparable to the monolithic number.
// The parent keeps the handoff totals, the resilience counters and the
// END-TO-END latency/wait histograms, observed at serve time: unlike the
// pools, it does not restate them when a continuous-batching join extends
// a batch. In replay both stages count the winning attempt only.
type disaggState struct {
	prefill *Endpoint
	decode  *Endpoint
	handoff Handoff
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
// identity, the cached-prefill discount, faults and the autoscale policy
// follow the parent (New clamps the policy to the pool's replicas);
// batching is the pool's own. The prefill pool inherits the parent's cache
// budgets when the pool doesn't set its own; the decode pool
// (inheritCache false) never caches: there is no prompt left to share.
func stageConfig(parent Config, pool PoolConfig, profile llm.Profile, inheritCache bool) Config {
	c := Config{
		Profile:           profile,
		Replicas:          pool.Replicas,
		Routing:           parent.Routing,
		MaxBatch:          pool.MaxBatch,
		MaxWait:           pool.MaxWait,
		Identity:          parent.Identity,
		CachedPrefillFrac: parent.CachedPrefillFrac,
		Autoscale:         parent.Autoscale,
		Faults:            parent.Faults,
	}
	if inheritCache {
		c.CacheTokens, c.CacheEntries = pool.CacheTokens, pool.CacheEntries
		if c.CacheTokens == 0 && c.CacheEntries == 0 {
			c.CacheTokens, c.CacheEntries = parent.CacheTokens, parent.CacheEntries
		}
	}
	return c
}

// newDisagg builds the two stage pools behind a disaggregated parent, which
// keeps no replicas of its own. The decode pool's fault schedule continues
// the slot numbering after the prefill pool's, so the pools fail
// independently.
func newDisagg(cfg Config) *disaggState {
	pre, dec := stageProfiles(cfg.Profile)
	d := &disaggState{
		prefill: New(stageConfig(cfg, cfg.Prefill, pre, true)),
		decode:  New(stageConfig(cfg, cfg.Decode, dec, false)),
		handoff: cfg.Handoff,
	}
	if fx := d.decode.fx; fx != nil {
		d.decode.fx = newFaultState(fx.cfg, len(fx.clocks), cfg.Prefill.Replicas)
	}
	return d
}

// handoff prices request req's prefill→decode transfer of tokens prompt
// tokens, leaving prefill at t, into the parent's stats and sink, and
// returns its cost.
func (e *Endpoint) handoff(req int64, agent string, t time.Duration, tokens int) time.Duration {
	h := e.dis.handoff.cost(tokens)
	e.stats.HandoffTime += h
	e.stats.HandoffTokens += tokens
	if e.sink != nil {
		e.sink.Event(obs.Event{
			Kind: obs.KindHandoff, T: t, Shard: e.shard,
			Req: req, Agent: agent, Tokens: tokens, Dur: h, Stage: "handoff",
		})
	}
	return h
}

// serve is the closed-loop path for Serve and ServeBatch alike: the calls
// run through prefill → handoff → decode as one unit — one prefill batch
// (or a single call), then one promptless decode submission re-arriving at
// prefill completion plus each member's priced transfer, with each
// member's result written into out. Each Served sums the stages; Decode
// covers the handoff plus the decode stage — the trailing window an async
// agent pipeline may overlap.
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
		handoffT := c.Arrival + ps[i].Latency
		h := e.handoff(reqBase+int64(i), c.Agent, handoffT, ps[i].PromptTokens)
		dcalls[i] = llm.Call{Agent: c.Agent, Arrival: handoffT + h, OutTokens: c.OutTokens}
	}
	d.decode.serveBatch(dcalls, out)
	for i := range calls {
		h := d.handoff.cost(ps[i].PromptTokens)
		lat := ps[i].Latency + h + out[i].Latency
		wait := ps[i].QueueWait + out[i].QueueWait
		e.stats.LatencyHist.Observe(lat)
		e.stats.QueueWaitHist.Observe(wait)
		out[i] = llm.Served{
			Latency: lat, QueueWait: wait, BatchSize: out[i].BatchSize,
			CachedTokens: ps[i].CachedTokens, PromptTokens: ps[i].PromptTokens,
			Decode: h + out[i].Latency,
		}
	}
}

// enterID keys request req's enter entry for attempt ai: same-instant
// entries queue in request-index order, then attempt order.
func enterID(req, ai int) int { return req<<32 | ai }

// handoff prices the KV transfer after prefill attempt ai completed and
// puts an entry on the enter calendar that queues the decode attempt when
// the transfer lands.
func (l *replayLoop) handoff(ai int) {
	a := &l.attempts[ai]
	end := a.start + a.service
	h := l.e.handoff(int64(a.req)+1, l.reqs[a.req].Agent, end, int(a.total))
	l.enter.push(end+h, enterID(a.req, ai), ai)
	l.pools[a.stage+1].inbound++
}

// enterDue queues the decode attempt of every handoff due by now, unless a
// sibling attempt has won the request during the transfer.
func (l *replayLoop) enterDue() {
	for l.enter.next() <= l.now {
		x := l.enter.pop()
		pre := l.attempts[x.v]
		l.pools[pre.stage+1].inbound--
		st := &l.states[pre.req]
		st.live--
		if !st.done {
			l.admit(rAttempt{req: pre.req, arrival: x.at, hedge: pre.hedge,
				stage: pre.stage + 1, prev: int32(x.v)})
		}
	}
}

// fold merges the two pools' statistics into the parent's Serving view s:
// flow sums add, the stage splits land in the Prefill*/Decode* fields, and
// the end-to-end distributions, handoff totals and resilience counters come
// from the parent's own s (see the type comment for the BatchedSeqs and
// histogram conventions).
func (d *disaggState) fold(s metrics.Serving) metrics.Serving {
	pf, dc := d.prefill.Stats(), d.decode.Stats()
	pf.QueueWaitHist, pf.LatencyHist, dc.QueueWaitHist, dc.LatencyHist = metrics.Hist{}, metrics.Hist{}, metrics.Hist{}, metrics.Hist{}
	f := s.Merge(pf).Merge(dc)
	f.Requests, f.BatchedSeqs, f.Replicas = dc.Requests, dc.BatchedSeqs, pf.Replicas+dc.Replicas
	f.ReplicaRequests = append(pf.ReplicaRequests, dc.ReplicaRequests...)
	f.PrefillService, f.DecodeService, f.PrefillWait, f.DecodeWait = pf.Service, dc.Service, pf.QueueWait, dc.QueueWait
	f.ReplicaTime, f.ReplicaDowntime = addSpan(pf.ReplicaTime, dc.ReplicaTime), addSpan(pf.ReplicaDowntime, dc.ReplicaDowntime)
	return f
}

// stageSink tags one pool's flight-recorder events with its stage before
// forwarding to the shared sink. It drops the decode pool's submit events:
// a decode submission is promptless, and TraceRequests must reconstruct
// each request once, from its prefill submission.
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
