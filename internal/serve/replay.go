package serve

import (
	"cmp"
	"slices"
	"time"

	"embench/internal/metrics"
	"embench/internal/prompt"
	"embench/internal/rng"
)

// Request is one entry of an open-loop request trace.
type Request struct {
	Agent     string
	Priority  int // lower is served first; FIFO within a class
	Arrival   time.Duration
	Prompt    prompt.Prompt
	OutTokens int
	// Deadline is the client's per-attempt timeout: an attempt whose batch
	// has not LAUNCHED within Deadline of the attempt entering admission is
	// abandoned (an in-flight batch always runs to completion). Expiry
	// triggers the config's RetryPolicy while budget remains; otherwise the
	// request resolves timed-out. 0 — the default — means no deadline, and a
	// trace without deadlines skips the loop's deadline scans entirely.
	Deadline time.Duration
}

// Completion describes how one replayed request was served. On a
// monolithic endpoint Start/Done bracket the request's single batch and
// the stage fields stay zero; on a disaggregated endpoint Start is the
// PREFILL batch launch, PrefillDone its completion, Done the DECODE batch
// completion, QueueWait the prefill-pool wait and DecodeWait the
// decode-pool wait (so Start - Arrival still equals QueueWait, per stage).
type Completion struct {
	Agent        string
	Arrival      time.Duration
	Start        time.Duration // batch launch time
	Done         time.Duration // batch completion time
	QueueWait    time.Duration // Start - Arrival
	BatchSize    int           // sequences in the request's (decode) batch
	PromptTokens int
	CachedTokens int
	// Disaggregated-endpoint stage split; zero on monolithic replays.
	PrefillDone time.Duration // prefill batch completion (handoff begins)
	DecodeWait  time.Duration // decode-pool admission-queue delay
	// Outcome labels how the request resolved: OutcomeServed (the zero
	// value, and the only label a replay without shedding or deadlines
	// produces), OutcomeShed (admission rejected the request under load), or
	// OutcomeTimedOut (deadline expired with the retry budget exhausted).
	// Shed and timed-out completions carry Done = the resolution time and
	// zero batch fields.
	Outcome Outcome
	// Retries / Hedged record how hard the client worked for a resilient
	// completion: re-issued attempts and whether a hedge duplicate was ever
	// issued (a served request with Hedged=true may have been won by either
	// copy).
	Retries int
	Hedged  bool
}

// ReplayResult bundles a replay's per-request completions (in submission
// order) with aggregate statistics.
type ReplayResult struct {
	Completions []Completion
	Stats       metrics.Serving
	Batches     int
	Makespan    time.Duration // last completion time
}

// Throughput reports served requests per simulated second over the
// makespan. Shed and timed-out requests are not served, so they do not
// count.
func (r ReplayResult) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	served := 0
	for i := range r.Completions {
		if r.Completions[i].Outcome == OutcomeServed {
			served++
		}
	}
	return float64(served) / r.Makespan.Seconds()
}

// Replay runs a full request trace through a fresh endpoint with a
// discrete-event loop: requests are admitted at their arrival times into a
// priority/FIFO queue, and batches of up to MaxBatch launch on an idle
// replica (picked by the routing policy) when the batch is full, when the
// oldest queued request has waited MaxWait, or when no further arrivals
// are pending. Fault injection and the client policies (Request.Deadline,
// RetryPolicy, HedgePolicy, ShedPolicy) act inside the same loop; with none
// of them configured every request is one attempt served in one batch.
// Batch pricing goes through the same admission helper as closed-loop
// serving, so a trace costs the same in either mode. All ties break on
// submission order, so the replay is a pure function of (cfg, reqs).
func Replay(cfg Config, reqs []Request) ReplayResult {
	return replayOn(New(cfg), reqs)
}

// never is a time no event reaches.
const never = time.Duration(1<<63 - 1)

// replayLoop is the state of one open-loop replay. The unit of scheduling
// is an attempt (see resilience.go): a policy-free replay has exactly one
// attempt per request.
type replayLoop struct {
	e    *Endpoint
	reqs []Request
	res  *ReplayResult

	keys    []promptKey // each request's prefix chain, hashed once
	order   []int       // request indices in (arrival, priority, index) order
	nextArr int         // next entry of order to arrive
	// expireAt bounds the earliest deadline expiry among queued attempts
	// from below; never while none of them has a deadline.
	expireAt time.Duration

	states   []rState
	attempts []rAttempt
	queue    []int         // attempt ids, sorted by (priority, attempt arrival, id)
	dirty    bool          // queue needs re-sorting
	inflight []int         // attempt ids whose batch is running
	doneAt   time.Duration // earliest batch end in inflight; never when empty
	timers   []rTimer      // sorted by time, then insertion
	jitter   []*rng.Stream // per-request backoff jitter, built lazily

	now      time.Duration
	resolved int // requests served, shed or timed out

	// Scratch reused across events and launches.
	due   []int
	batch []int
	bkeys []promptKey
	outs  []int
}

// replayOn is Replay over an already built endpoint (Replay and
// ReplayObserved share it; replayDisagg runs it once per stage pool). With
// a flight-recorder sink attached, submit events for the whole trace go out
// up front in arrival order — so an exported replay trace is itself
// replayable — each launch emits route/cache/batch_start, and each served
// request a complete event at its batch's end. Open-loop batches never grow
// after launch, so no batch_seal is emitted.
func replayOn(e *Endpoint, reqs []Request) ReplayResult {
	if e.dis != nil {
		return replayDisagg(e, reqs)
	}
	res := ReplayResult{Completions: make([]Completion, len(reqs))}
	if len(reqs) == 0 {
		return res
	}
	l := &replayLoop{
		e: e, reqs: reqs, res: &res,
		keys:     make([]promptKey, len(reqs)),
		order:    make([]int, len(reqs)),
		states:   make([]rState, len(reqs)),
		attempts: make([]rAttempt, 0, len(reqs)),
		doneAt:   never,
		expireAt: never,
	}
	// Hash every request's prefix chain once, under the endpoint's cache
	// identity; routing probes and batch admissions reuse the memoized keys.
	for i := range reqs {
		l.keys[i] = chainKeysIdent(nil, reqs[i].Prompt, e.cfg.Identity)
		l.order[i] = i
	}
	// Arrival order with an explicit total tie-break: (arrival, priority,
	// submission index). Generated traffic interleaves many tenants' seeded
	// arrival processes and equal arrivals DO occur — the order they enter
	// the admission queue must be pinned by the trace itself, never by sort
	// internals.
	slices.SortFunc(l.order, func(a, b int) int {
		if c := cmp.Compare(reqs[a].Arrival, reqs[b].Arrival); c != 0 {
			return c
		}
		if c := cmp.Compare(reqs[a].Priority, reqs[b].Priority); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if e.sink != nil {
		for _, qi := range l.order {
			rq := reqs[qi]
			e.emitSubmit(int64(qi)+1, rq.Agent, rq.Arrival, rq.Prompt, rq.OutTokens, rq.Priority)
		}
	}
	l.now = reqs[l.order[0]].Arrival
	l.run()
	if e.fx != nil {
		// Drain downtime accounting through the end of the run: windows
		// opening after the last served batch still count as downtime
		// inside the horizon actually simulated.
		e.applyFaults(res.Makespan)
	}
	e.finishAutoscale(res.Makespan)
	res.Stats = e.Stats()
	return res
}

// run processes events until every request has resolved. Same-instant
// events go in a fixed category order — completions, deadline expiries,
// timers, arrivals, launches — each with index tie-breaks.
func (l *replayLoop) run() {
	e, reqs := l.e, l.reqs
	for l.resolved < len(reqs) {
		if e.fx != nil {
			e.applyFaults(l.now)
		}
		// Replay every autoscale evaluation tick up to now before routing:
		// ticks are pure virtual-time events, so a long arrival gap replays
		// its missed ticks in order.
		e.maybeAutoscale(l.now)
		l.completeDue()
		if l.expireAt <= l.now {
			l.expireDeadlines()
		}
		l.fireTimers()
		for l.nextArr < len(l.order) && reqs[l.order[l.nextArr]].Arrival <= l.now {
			qi := l.order[l.nextArr]
			l.nextArr++
			l.enqueue(qi, reqs[qi].Arrival)
		}
		l.sortQueue()
		l.launch()
		if l.resolved >= len(reqs) {
			break
		}
		l.now = l.nextEvent()
	}
}

// completeDue resolves every batch completion due by now in (end, attempt
// id) order: the first completion of a request wins it; later ones were
// waste.
func (l *replayLoop) completeDue() {
	if l.doneAt > l.now {
		return
	}
	due, running := l.due[:0], l.inflight[:0]
	l.doneAt = never
	for _, ai := range l.inflight {
		if end := l.attempts[ai].end(); end <= l.now {
			due = append(due, ai)
		} else {
			running = append(running, ai)
			l.doneAt = min(l.doneAt, end)
		}
	}
	l.inflight = running
	slices.SortFunc(due, func(a, b int) int {
		if c := cmp.Compare(l.attempts[a].end(), l.attempts[b].end()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, ai := range due {
		l.states[l.attempts[ai].req].live--
		l.resolveServed(ai)
	}
	l.due = due
}

// resolveServed completes a logical request with attempt ai's batch:
// winner-only flow accounting, cancellation of still-queued duplicates
// (in-service duplicates run on as priced waste).
func (l *replayLoop) resolveServed(ai int) {
	e := l.e
	a := &l.attempts[ai]
	st := &l.states[a.req]
	if st.done {
		return // a sibling already won; this batch's span was pure waste
	}
	st.done = true
	l.resolved++
	if a.hedge {
		e.stats.HedgeWins++
	}
	rq := l.reqs[a.req]
	end, wait := a.end(), a.start-a.arrival
	n, cached, total := int(a.n), int(a.cached), int(a.total)
	e.record(a.service, wait, n, cached, total)
	e.stats.LatencyHist.Observe(end - rq.Arrival)
	l.res.Completions[a.req] = Completion{
		Agent: rq.Agent, Arrival: rq.Arrival, Start: a.start, Done: end,
		QueueWait: wait, BatchSize: n,
		PromptTokens: total, CachedTokens: cached,
		Retries: int(st.retries), Hedged: st.everHedged,
	}
	if e.sink != nil {
		e.emitComplete(int64(a.req)+1, rq.Agent, int(a.ri), end, end-rq.Arrival, wait, n, cached, total)
	}
	if st.live > 0 {
		// Cancel queued duplicates for free; they never reached a replica.
		queued := len(l.queue)
		l.queue = slices.DeleteFunc(l.queue, func(q int) bool { return l.attempts[q].req == a.req })
		st.live -= int32(queued - len(l.queue))
	}
}

// sortQueue restores the queue's (priority, attempt arrival, id) order
// after admissions.
func (l *replayLoop) sortQueue() {
	if !l.dirty {
		return
	}
	l.dirty = false
	slices.SortFunc(l.queue, func(a, b int) int {
		aa, ab := &l.attempts[a], &l.attempts[b]
		if c := cmp.Compare(l.reqs[aa.req].Priority, l.reqs[ab.req].Priority); c != 0 {
			return c
		}
		if c := cmp.Compare(aa.arrival, ab.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// oldestQueued is the earliest admission time among queued attempts.
func (l *replayLoop) oldestQueued() time.Duration {
	oldest := l.attempts[l.queue[0]].arrival
	for _, ai := range l.queue[1:] {
		if l.attempts[ai].arrival < oldest {
			oldest = l.attempts[ai].arrival
		}
	}
	return oldest
}

// shouldLaunch is the batching policy: launch when batches are unbatched or
// full, when nothing else can arrive (waiting is pure loss), or when the
// oldest queued attempt has waited MaxWait.
func (l *replayLoop) shouldLaunch() bool {
	cfg := &l.e.cfg
	if cfg.MaxBatch <= 1 || len(l.queue) >= cfg.MaxBatch {
		return true
	}
	if l.nextArr >= len(l.order) && len(l.timers) == 0 {
		return true
	}
	return l.now-l.oldestQueued() >= cfg.MaxWait
}

// takeBatch moves up to MaxBatch attempts from the head of the queue into
// l.batch, with their prefix chains and generation lengths in l.bkeys and
// l.outs. A batch never carries two attempts of the same request (racing
// your own duplicate inside one batch is pure waste); skipped duplicates
// stay queued.
func (l *replayLoop) takeBatch() {
	l.batch, l.bkeys, l.outs = l.batch[:0], l.bkeys[:0], l.outs[:0]
	rest := l.queue[:0]
	for i, ai := range l.queue {
		if len(l.batch) == l.e.cfg.MaxBatch {
			rest = append(rest, l.queue[i:]...)
			break
		}
		if req := l.attempts[ai].req; !l.inBatch(req) {
			l.batch = append(l.batch, ai)
			l.bkeys = append(l.bkeys, l.keys[req])
			l.outs = append(l.outs, l.reqs[req].OutTokens)
		} else {
			rest = append(rest, ai)
		}
	}
	l.queue = rest
}

// inBatch reports whether l.batch already holds an attempt of request req.
// Only a request with a second live attempt can have one.
func (l *replayLoop) inBatch(req int) bool {
	if l.states[req].live < 2 {
		return false
	}
	for _, bi := range l.batch {
		if l.attempts[bi].req == req {
			return true
		}
	}
	return false
}

// launch starts batches while an idle replica and the batching policy
// allow; the routing policy picks which idle replica hosts each batch.
func (l *replayLoop) launch() {
	e := l.e
	for len(l.queue) > 0 && l.shouldLaunch() {
		r := e.routeIdle(l.now, l.keys[l.attempts[l.queue[0]].req])
		if r == nil {
			return
		}
		l.takeBatch()
		n, ri := len(l.batch), e.rindex(r)
		var evBefore int
		if e.sink != nil {
			e.emitRoute(int64(l.attempts[l.batch[0]].req)+1, l.now, r, l.bkeys[0])
			_, _, evBefore = r.cache.stats()
		}
		service, members, totalEff, maxOut := e.admitBatch(r, l.bkeys, l.outs)
		if e.fx != nil {
			if f := e.stragFactor(ri, l.now); f > 1 {
				service = time.Duration(float64(service) * f)
			}
			if w, hit := e.crashIn(ri, l.now, l.now+service); hit {
				l.crashBatch(r, ri, w)
				continue
			}
		}
		end := l.now + service
		r.startBatch(l.now, end, n, totalEff, maxOut, service)
		e.busyAcc += service
		l.res.Batches++
		if e.sink != nil {
			for bi, ai := range l.batch {
				e.emitCache(int64(l.attempts[ai].req)+1, l.now, ri, members[bi].cached, members[bi].total)
			}
			if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
				e.emitEvict(l.now, ri, evAfter-evBefore)
			}
			e.emitBatchStart(l.now, ri, n, totalEff, maxOut, service)
		}
		for bi, ai := range l.batch {
			a := &l.attempts[ai]
			a.start, a.service, a.ri = l.now, service, int32(ri)
			a.n, a.cached, a.total = int32(n), int32(members[bi].cached), int32(members[bi].total)
		}
		l.inflight = append(l.inflight, l.batch...)
		l.doneAt = min(l.doneAt, end)
		if end > l.res.Makespan {
			l.res.Makespan = end
		}
	}
}

// nextEvent is the earliest future event: an arrival, a timer, a queued
// attempt's deadline, a replica freeing (an in-flight batch completing, or
// a restart or warm-up ending), a batching-window expiry, an autoscale tick,
// or an idle replica's scheduled crash. A batch of zero service time
// completes at the instant it launched, so the loop stays at now to
// resolve it.
func (l *replayLoop) nextEvent() time.Duration {
	e, now := l.e, l.now
	if l.doneAt <= now {
		return now
	}
	next := never
	if l.nextArr < len(l.order) {
		next = l.reqs[l.order[l.nextArr]].Arrival
	}
	for _, tm := range l.timers {
		if tm.at > now {
			next = min(next, tm.at)
			break
		}
	}
	if l.expireAt < never {
		for _, ai := range l.queue {
			if t := l.expiry(ai); t > now && t < next {
				next = t
			}
		}
	}
	if len(l.queue) > 0 && e.cfg.MaxBatch > 1 {
		// Only a future window expiry is an event; an already-expired
		// window means the queue is waiting on a replica, not on time.
		if t := l.oldestQueued() + e.cfg.MaxWait; t > now && t < next {
			next = t
		}
	}
	// Only active replicas are schedulable events: a warming replica's
	// freeAt (its cold-start expiry) counts, a parked one's does not.
	for ri := range e.replicas[:e.active] {
		if t := e.replicas[ri].freeAt; t > now && t < next {
			next = t
		}
	}
	if e.cfg.Autoscale.enabled() && e.asNext > now && e.asNext < next {
		// The next evaluation tick can change the active set (waking a
		// queue that is waiting on capacity), so it is an event too.
		next = e.asNext
	}
	if t, ok := e.nextFault(now); ok && t < next {
		next = t
	}
	if next <= now {
		next = now + time.Nanosecond // safety: time must advance
	}
	return next
}
