package serve

import (
	"sync"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/serve/obs"
)

// Fleet promotes an Endpoint to a cross-episode shared deployment: one set
// of replicas, queues and caches that several concurrently running
// episodes contend for — the paper's many-agents-one-deployment regime at
// fleet scale.
//
// Each attached episode owns a FleetClient (its llm.Backend). Episodes run
// on separate goroutines, so their requests interleave arbitrarily in
// wall time; the fleet merges them into one deterministic admission order
// with a conservative discrete-event rule: a request is admitted only
// when every still-attached episode has either revealed its next request
// or finished, and then the revealed pending request with the smallest
// (arrival, client id) key goes first. The merged order is a pure
// function of the episodes' submission sequences — what each episode
// submits, in the order it submits it — and never of goroutine
// scheduling; that is the determinism guarantee. It is NOT a globally
// arrival-sorted order: an episode multiplexes many per-agent clocks, so
// its later submissions can carry earlier arrivals (exactly as
// closed-loop admission within a single episode is submission-ordered,
// with arrivals driving only the queueing and batching arithmetic).
//
// # Scale
//
// The merge is built to stay cheap at thousands of episodes: revealed
// pending requests live on a calendar (the replay loop's min-heap) keyed
// by (arrival, client id), so each admission costs O(log N) instead of a
// linear rescan, and a served client is woken through its own one-slot
// channel, so an admission wakes exactly the episode whose request
// completed instead of broadcasting to all N. An optional Gate (SetGate) additionally bounds how many episode
// goroutines execute episode code at once — parked clients release their
// slot while they wait in the merge — which is what lets a 2048-episode
// fleet run with a worker-pool's worth of active stacks (see
// runner.RunFleet's activation pool).
//
// The price of the conservative rule is blocking: a client's Serve call
// parks until its request reaches the head of the merged order. All
// episodes of a fleet must therefore run concurrently (the runner
// guarantees this — see runner.RunFleet); driving a fleet's clients from
// one goroutine deadlocks as soon as two episodes are attached.
type Fleet struct {
	mu      sync.Mutex
	ep      *Endpoint
	clients []*FleetClient
	// revealed holds the ids of the clients whose next request is revealed
	// but unserved, keyed by (pend.arrival, id); unrevealed counts the live
	// clients that are not on it. Admission may proceed exactly when
	// unrevealed == 0 — the conservative rule as two O(1)-readable facts.
	revealed   calendar[struct{}]
	unrevealed int
	// gate, when set, bounds active episode execution (see Gate). Read
	// without the mutex: it must be set before any episode runs and never
	// changed afterwards.
	gate Gate
}

// Gate bounds how many fleet episodes actively execute at once. A client
// releases its slot while it is parked in the merge (its request revealed,
// waiting to be admitted) and re-acquires it when its request completes,
// so at any moment only slot holders run episode code. Implementations
// must be safe for concurrent use; a counting semaphore is the intended
// shape. Acquire must not be called while holding fleet-internal locks
// (the fleet guarantees this).
type Gate interface {
	Acquire()
	Release()
}

// FleetClient is one episode's handle on a shared Fleet. It implements
// llm.Backend and llm.BatchBackend; episode runners attach it via
// multiagent.Options.Backend. Finish MUST be called when the episode ends
// (the runner does this, panic-safely) or the remaining episodes block
// forever waiting for the finished one's next request.
type FleetClient struct {
	f    *Fleet
	id   int
	done bool
	pend *fleetPending
	// wake carries the "your request was served" signal: one-slot
	// buffered, written by the admitting goroutine (under the fleet
	// mutex), consumed by the owning episode goroutine — exactly one
	// token per submitted request, so a serve wakes only this client.
	wake chan struct{}
	// scratch is the per-client pending struct, reused across requests:
	// a client has at most one outstanding request, so Serve/ServeBatch
	// never need a fresh allocation.
	scratch fleetPending
	// stats is this episode's share of the endpoint's traffic: what the
	// episode's own requests experienced. The endpoint-level totals
	// (Fleet.Stats) restate joined batches retroactively, so per-episode
	// shares sum approximately — not exactly — to the fleet totals.
	stats metrics.Serving
}

// fleetPending is one submitted-but-unserved request (or explicit batch).
type fleetPending struct {
	arrival time.Duration // merge key: max member arrival for batches
	call    llm.Call
	batch   []llm.Call // non-nil for ServeBatch submissions
	served  bool
	res     llm.Served
	resB    []llm.Served
}

// Compile-time checks: fleet clients are full serving backends.
var (
	_ llm.Backend      = (*FleetClient)(nil)
	_ llm.BatchBackend = (*FleetClient)(nil)
)

// NewFleet builds a fleet of `episodes` clients sharing one endpoint built
// from cfg.
func NewFleet(cfg Config, episodes int) *Fleet {
	f := &Fleet{ep: New(cfg), clients: make([]*FleetClient, episodes),
		revealed: make(calendar[struct{}], 0, episodes), unrevealed: episodes}
	for i := range f.clients {
		f.clients[i] = &FleetClient{f: f, id: i, wake: make(chan struct{}, 1)}
		f.clients[i].stats.Replicas = f.ep.cfg.Replicas
	}
	return f
}

// SetGate installs an activation gate (see Gate). It must be called before
// any episode issues a request and the gate must already be held by every
// episode goroutine when it starts running episode code.
func (f *Fleet) SetGate(g Gate) { f.gate = g }

// Client returns episode i's backend handle.
func (f *Fleet) Client(i int) *FleetClient { return f.clients[i] }

// Size reports the number of attached episodes.
func (f *Fleet) Size() int { return len(f.clients) }

// Config reports the underlying endpoint's effective configuration.
func (f *Fleet) Config() Config { return f.ep.Config() }

// Stats reports the endpoint-level serving totals across all episodes.
// Safe at any time (all endpoint mutation happens under the fleet mutex);
// a mid-run read simply returns a partial snapshot of an ongoing run.
func (f *Fleet) Stats() metrics.Serving {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ep.Stats()
}

// emitAdmit records a fleet-merge admission (see internal/serve/obs): the
// winning client's pending request is about to be served, so the endpoint
// events it triggers follow immediately in this goroutine, under f.mu —
// one fleet's event stream is as deterministic as its admission order.
func (f *Fleet) emitAdmit(c *FleetClient, p *fleetPending) {
	if f.ep.sink == nil {
		return
	}
	f.ep.sink.Event(obs.Event{
		Kind: obs.KindAdmit, T: p.arrival, Shard: f.ep.shard,
		Client: c.id, Batch: len(p.batch),
	})
}

// dispatch admits pending requests while the conservative rule allows:
// every still-attached client must have revealed an unserved pending
// request (unrevealed == 0) before the earliest revealed one — smallest
// (arrival, client id) — may be served. Each admission pops the calendar,
// serves against the shared endpoint, and signals exactly the served
// client's wake channel. Runs with f.mu held.
func (f *Fleet) dispatch() {
	for f.unrevealed == 0 && len(f.revealed) > 0 {
		c := f.clients[f.revealed.pop().id]
		// c is live again but its next request is not revealed yet.
		f.unrevealed++
		f.serve(c)
		// One-slot buffer and at most one outstanding request per client:
		// the send can only find the buffer empty, so it never blocks and
		// never drops a needed token.
		c.wake <- struct{}{}
	}
}

// serve admits c's revealed pending request: it records the admission,
// serves the request against the shared endpoint and marks it served. Runs
// with f.mu held.
func (f *Fleet) serve(c *FleetClient) {
	p := c.pend
	f.emitAdmit(c, p)
	if p.batch != nil {
		p.resB = f.ep.ServeBatch(p.batch)
	} else {
		p.res = f.ep.Serve(p.call)
	}
	p.served = true
}

// submit parks the calling episode's request in the merge and blocks until
// it has been admitted and served.
func (c *FleetClient) submit(p *fleetPending) {
	f := c.f
	f.mu.Lock()
	if c.done {
		f.mu.Unlock()
		panic("serve: FleetClient used after Finish")
	}
	c.pend = p
	f.revealed.push(p.arrival, c.id, struct{}{})
	f.unrevealed--
	f.dispatch()
	served := p.served
	f.mu.Unlock()
	if served {
		// Our own dispatch call admitted us (possibly along with others);
		// the token is already in the buffer — drain it so the next
		// submission starts clean.
		<-c.wake
		return
	}
	// Park. While parked we hold no activation slot: the gate is released
	// so another episode can run, and re-acquired once our request has
	// been served and episode code is about to resume.
	if g := f.gate; g != nil {
		g.Release()
		<-c.wake
		g.Acquire()
	} else {
		<-c.wake
	}
}

// Serve implements llm.Backend: the episode's next request enters the
// cross-episode merge and resolves against the shared endpoint once it is
// globally next.
func (c *FleetClient) Serve(call llm.Call) llm.Served {
	p := &c.scratch
	*p = fleetPending{arrival: call.Arrival, call: call}
	c.submit(p)
	c.fold(p.res)
	return p.res
}

// ServeBatch implements llm.BatchBackend: an explicitly aggregated
// step-phase batch enters the merge as one unit, keyed by its last
// member's arrival (the batch cannot launch before it is complete).
func (c *FleetClient) ServeBatch(calls []llm.Call) []llm.Served {
	if len(calls) == 0 {
		return nil
	}
	p := &c.scratch
	*p = fleetPending{arrival: batchArrival(calls), batch: calls}
	c.submit(p)
	for _, s := range p.resB {
		c.fold(s)
	}
	return p.resB
}

// fold accumulates one served request into the episode's serving share.
// Only the owning episode's goroutine calls it, so no lock is needed. The
// prompt total comes back from the endpoint's admission pricing
// (Served.PromptTokens), saving a re-walk of the prompt sections.
func (c *FleetClient) fold(s llm.Served) {
	c.stats.Requests++
	c.stats.QueueWait += s.QueueWait
	c.stats.Service += s.Latency - s.QueueWait
	c.stats.BatchedSeqs += s.BatchSize
	c.stats.PrefillTokens += s.PromptTokens
	c.stats.CachedTokens += s.CachedTokens
	// Distribution shares use the as-served values: a later join may extend
	// this batch, but the restatement is an endpoint-level fact — episode
	// shares, like the sums above, reflect what this episode's own requests
	// were told at serve time.
	c.stats.QueueWaitHist.Observe(s.QueueWait)
	c.stats.LatencyHist.Observe(s.Latency)
}

// ServingStats reports the episode's share of the fleet's serving traffic;
// the episode runner folds it into the episode metrics at finish.
func (c *FleetClient) ServingStats() metrics.Serving { return c.stats }

// Finish detaches the episode from the merge: its absence no longer holds
// back other episodes' admissions. Idempotent; safe to defer.
func (c *FleetClient) Finish() {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	// The finishing client is by construction not revealed (its owning
	// goroutine only calls Finish between requests), so it was counted
	// unrevealed; removing it may unblock admissions, and dispatch wakes
	// exactly the clients it serves.
	f.unrevealed--
	f.dispatch()
}
