package serve

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"embench/internal/metrics"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// Request is one entry of an open-loop request trace.
type Request struct {
	Agent     string
	Priority  int // lower is served first; FIFO within a class
	Arrival   time.Duration
	Prompt    prompt.Prompt
	OutTokens int
	// Deadline is the client's per-attempt timeout: an attempt whose batch
	// has not LAUNCHED within Deadline of the attempt entering its stage's
	// queue is abandoned (an in-flight batch always runs to completion).
	// Expiry triggers the config's RetryPolicy while budget remains;
	// otherwise the request resolves timed-out. 0 — the default — means no
	// deadline.
	Deadline time.Duration
}

// Completion describes how one replayed request was served. On a
// monolithic endpoint Start/Done bracket the request's winning batch and
// the stage fields stay zero; on a disaggregated endpoint Start is the
// PREFILL batch launch, PrefillDone its completion, Done the DECODE batch
// completion, QueueWait the prefill-pool wait and DecodeWait the
// decode-pool wait.
type Completion struct {
	Agent        string
	Arrival      time.Duration
	Start        time.Duration // batch launch time
	Done         time.Duration // batch completion time
	QueueWait    time.Duration // Start - the winning attempt's arrival
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
// are pending. Disaggregated pools, fault injection and the client policies
// (Request.Deadline, RetryPolicy, HedgePolicy, ShedPolicy) act inside the
// same loop; with none of them configured every request is one attempt
// served in one batch.
// Batch pricing goes through the same admission helper as closed-loop
// serving, so a trace costs the same in either mode. All ties break on
// submission order, so the replay is a pure function of (cfg, reqs).
func Replay(cfg Config, reqs []Request) ReplayResult {
	return replayOn(New(cfg), reqs)
}

// never is a time no event reaches.
const never = time.Duration(1<<63 - 1)

// calendar is the event calendar of the serving loops: a binary min-heap of
// entries ordered by (at, id), each carrying a payload v. The replay loop
// keeps its batch completions, deadline expiries and client timers on one,
// and the fleet merge its revealed clients. push and pop resize the slice
// by self-assignment, which stores only its length: no write barrier.
type calendar[T any] []calEntry[T]

// calEntry is one calendar entry; v leads so a zero-size payload adds no
// padding.
type calEntry[T any] struct {
	v  T
	at time.Duration
	id int
}

// before orders entries by (at, id).
func (a *calEntry[T]) before(b *calEntry[T]) bool {
	return a.at < b.at || a.at == b.at && a.id < b.id
}

// next is the earliest entry's time; never when the calendar is empty.
func (c calendar[T]) next() time.Duration {
	if len(c) == 0 {
		return never
	}
	return c[0].at
}

func (c *calendar[T]) push(at time.Duration, id int, v T) {
	x := calEntry[T]{v: v, at: at, id: id}
	*c = append(*c, x)
	h := *c
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && x.before(&h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = x
}

// pop removes and returns the earliest entry; the calendar must not be
// empty.
func (c *calendar[T]) pop() calEntry[T] {
	h := *c
	top, n := h[0], len(h)-1
	x, i := h[n], 0
	for m := 1; m < n; m = 2*i + 1 {
		if m+1 < n && h[m+1].before(&h[m]) {
			m++
		}
		if !h[m].before(&x) {
			break
		}
		h[i], i = h[m], m
	}
	h[i] = x
	*c = (*c)[:n]
	return top
}

// addSpan adds a non-negative span to a non-negative running sum,
// saturating at never instead of wrapping negative.
func addSpan(sum, d time.Duration) time.Duration {
	if d > never-sum {
		return never
	}
	return sum + d
}

// replicaSpan is n replicas × a non-negative span d, saturating at never.
func replicaSpan(n int, d time.Duration) time.Duration {
	if n > 0 && d > never/time.Duration(n) {
		return never
	}
	return time.Duration(n) * d
}

// replayLoop is the state of one open-loop replay. The unit of scheduling
// is an attempt (see resilience.go).
type replayLoop struct {
	e    *Endpoint
	reqs []Request
	res  *ReplayResult

	keys    []promptKey // each request's prefix chain, hashed once per prompt
	order   []int       // request indices in (arrival, priority, index) order
	nextArr int         // next entry of order to arrive

	states   []rState
	attempts []rAttempt
	// pools are the stages an attempt passes through: the endpoint itself,
	// or a disaggregated endpoint's prefill and decode pools (disagg.go).
	pools []rPool

	// The calendars: batch ends and deadline expiries keyed by attempt id
	// (an expiry whose attempt has left the queue is stale, and skipped at
	// the head), client timers keyed by insertion number (nTimers counts
	// them), and handoffs keyed by enterID.
	done    calendar[struct{}]
	expire  calendar[struct{}]
	timers  calendar[rTimer]
	nTimers int
	enter   calendar[int]

	// Retry jitter (resilience.go): the serve/retry source, each retried
	// request's stream while it is unresolved, and the streams of resolved
	// requests, kept for reuse.
	retrySrc   *rng.Source
	jitter     []*rng.Stream
	freeJitter []*rng.Stream

	now      time.Duration
	resolved int // requests served, shed or timed out

	// Scratch reused across launches.
	batch []int
	bkeys []promptKey
	outs  []int
}

// rPool is one stage pool of the loop.
type rPool struct {
	e       *Endpoint
	queue   []int // attempt ids, kept in queueCmp order on insert
	busy    int   // attempts in launched batches not yet complete
	inbound int   // enter entries that will queue here
}

// replayOn is Replay over an already built endpoint. With a
// flight-recorder sink attached, submit events for the whole trace go out
// up front in arrival order — so an exported replay trace is itself
// replayable — each launch emits route/cache/batch_start, and each served
// request a complete event per stage. Open-loop batches never grow after
// launch, so no batch_seal is emitted.
func replayOn(e *Endpoint, reqs []Request) ReplayResult {
	res := ReplayResult{Completions: make([]Completion, len(reqs))}
	if len(reqs) == 0 {
		return res
	}
	pools := []rPool{{e: e}}
	if e.dis != nil {
		pools = []rPool{{e: e.dis.prefill}, {e: e.dis.decode}}
	}
	l := &replayLoop{
		e: e, reqs: reqs, res: &res, pools: pools,
		keys:     make([]promptKey, len(reqs)),
		order:    make([]int, len(reqs)),
		states:   make([]rState, len(reqs)),
		attempts: make([]rAttempt, 0, len(reqs)*len(pools)),
	}
	if e.cfg.Retry.enabled() {
		// Retry jitter shares the fault seed's root (zero is a valid seed).
		l.retrySrc = rng.New(e.cfg.Faults.Seed).Sub("serve/retry")
		l.jitter = make([]*rng.Stream, len(reqs))
	}
	for i := range reqs {
		l.order[i] = i
	}
	// Arrival order with an explicit total tie-break: (arrival, priority,
	// submission index). Equal arrivals DO occur in generated traffic, and
	// the trace itself, never sort internals, must pin their order.
	slices.SortFunc(l.order, func(a, b int) int {
		if c := cmp.Compare(reqs[a].Arrival, reqs[b].Arrival); c != 0 {
			return c
		}
		if c := cmp.Compare(reqs[a].Priority, reqs[b].Priority); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Hash each distinct prompt once, under the endpoint's cache identity:
	// requests sharing a Sections array share its read-only chain (and, on
	// the sink path, its submit sections), which routing probes and batch
	// admissions reuse. Submit events go out in arrival order.
	first := pools[0].e
	memo := map[chainID]internedChain{}
	for _, qi := range l.order {
		rq := &reqs[qi]
		c := intern(memo, rq.Prompt, e.cfg.Identity, first.sink != nil)
		l.keys[qi] = c.key
		if first.sink != nil {
			first.emitSubmit(int64(qi)+1, rq.Agent, rq.Arrival, c.secs, rq.OutTokens, rq.Priority)
		}
	}
	l.now = reqs[l.order[0]].Arrival
	l.run()
	for _, p := range pools {
		if p.e.fx != nil {
			// Windows opening after the last batch still count as downtime
			// inside the simulated horizon.
			p.e.applyFaults(res.Makespan)
		}
		p.e.finishAutoscale(res.Makespan)
	}
	res.Stats = e.Stats()
	return res
}

// chainID names a prompt by its Sections slice: the backing array and the
// length. Within one replay the sections are read-only, so equal chainIDs
// hold equal prompts.
type chainID struct {
	first *prompt.Section
	n     int
}

// internedChain is one distinct prompt's memoized prefix chain and, on the
// sink path, the submit event's copy of its sections. Both are shared by
// every request of the prompt and are read-only.
type internedChain struct {
	key  promptKey
	secs []obs.Section
}

// intern returns p's chain under ident from memo, hashing it (and building
// its submit sections when withSecs) on first sight. A prompt without
// sections is not memoized: its chain is empty.
func intern(memo map[chainID]internedChain, p prompt.Prompt, ident CacheIdentity, withSecs bool) internedChain {
	var id chainID
	if len(p.Sections) > 0 {
		id = chainID{&p.Sections[0], len(p.Sections)}
		if c, ok := memo[id]; ok {
			return c
		}
	}
	c := internedChain{key: chainKeysIdent(make([]sectionKey, 0, len(p.Sections)), p, ident)}
	if withSecs {
		c.secs = obsSections(p)
	}
	if id.n > 0 {
		memo[id] = c
	}
	return c
}

// run processes events until every request has resolved. Same-instant
// events go in a fixed category order — completions, deadline expiries,
// timers, arrivals (handoffs first, then the trace's), launches (decode
// pool first) — each with index tie-breaks.
func (l *replayLoop) run() {
	reqs := l.reqs
	for l.resolved < len(reqs) {
		for _, p := range l.pools {
			if p.e.fx != nil {
				p.e.applyFaults(l.now)
			}
			// Replay every autoscale tick up to now before routing, so a
			// long arrival gap replays its missed ticks in order.
			p.e.maybeAutoscale(l.now)
		}
		l.completeDue()
		l.expireDeadlines()
		l.fireTimers()
		l.enterDue()
		for l.nextArr < len(l.order) && reqs[l.order[l.nextArr]].Arrival <= l.now {
			qi := l.order[l.nextArr]
			l.nextArr++
			l.enqueue(qi, reqs[qi].Arrival)
		}
		// Last stage first: a crash victim re-enters the first stage at
		// once, and must find that stage's launches still to come.
		for s := len(l.pools) - 1; s >= 0; s-- {
			l.launch(s)
		}
		if l.resolved >= len(reqs) {
			break
		}
		l.now = l.nextEvent()
	}
}

// completeDue handles every batch completion due by now in (end, attempt
// id) order: a prefill completion hands off to the decode pool, and the
// first last-stage completion of a request wins it.
func (l *replayLoop) completeDue() {
	for l.done.next() <= l.now {
		ai := l.done.pop().id
		a := &l.attempts[ai]
		l.pools[a.stage].busy--
		if int(a.stage)+1 < len(l.pools) && !l.states[a.req].done {
			l.handoff(ai)
			continue
		}
		l.states[a.req].live--
		l.resolveServed(ai)
	}
}

// serveStage folds attempt ai's batch into its pool's flow statistics and
// emits its complete event, with the latency counted from the request's
// arrival at the stage.
func (l *replayLoop) serveStage(ai int) {
	a, rq := &l.attempts[ai], l.reqs[l.attempts[ai].req]
	e, from := l.pools[a.stage].e, a.arrival
	if a.stage == 0 {
		from = rq.Arrival
	}
	end, wait := a.start+a.service, a.start-a.arrival
	n, cached, total := int(a.n), int(a.cached), int(a.total)
	e.record(a.service, wait, n, cached, total)
	if e.sink != nil {
		e.emitComplete(int64(a.req)+1, rq.Agent, int(a.ri), end, end-from, wait, n, cached, total)
	}
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
	l.releaseJitter(a.req)
	if a.hedge {
		e.stats.HedgeWins++
	}
	rq, end := l.reqs[a.req], a.start+a.service
	pre := a // the attempt that ran the prefill
	if a.stage > 0 {
		pre = &l.attempts[a.prev]
		l.serveStage(int(a.prev))
		e.stats.QueueWaitHist.Observe(pre.start - pre.arrival + a.start - a.arrival)
	}
	l.serveStage(ai)
	e.stats.LatencyHist.Observe(end - rq.Arrival)
	c := Completion{
		Agent: rq.Agent, Arrival: rq.Arrival, Start: pre.start, Done: end,
		QueueWait: pre.start - pre.arrival, BatchSize: int(a.n),
		PromptTokens: int(pre.total), CachedTokens: int(pre.cached),
		Retries: int(st.retries), Hedged: st.everHedged,
	}
	if a.stage > 0 {
		c.PrefillDone, c.DecodeWait = pre.start+pre.service, a.start-a.arrival
	}
	l.res.Completions[a.req] = c
	for i := 0; st.live > 0 && i < len(l.pools); i++ {
		// Cancel queued duplicates for free; they never reached a replica.
		p := &l.pools[i]
		queued := len(p.queue)
		p.queue = slices.DeleteFunc(p.queue, func(q int) bool {
			drop := l.attempts[q].req == a.req
			l.attempts[q].queued = !drop
			return drop
		})
		st.live -= int32(queued - len(p.queue))
	}
}

// key is the prefix chain attempt ai brings to its pool: a decode attempt
// carries no prompt across the handoff.
func (l *replayLoop) key(ai int) promptKey {
	if a := &l.attempts[ai]; a.stage == 0 {
		return l.keys[a.req]
	}
	return promptKey{}
}

// prio is attempt ai's priority class.
func (l *replayLoop) prio(ai int) int { return l.reqs[l.attempts[ai].req].Priority }

// queueCmp orders queued attempt ids by (priority, attempt arrival, id).
func (l *replayLoop) queueCmp(a, b int) int {
	if c := cmp.Compare(l.prio(a), l.prio(b)); c != 0 {
		return c
	}
	if c := cmp.Compare(l.attempts[a].arrival, l.attempts[b].arrival); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// queueAttempt inserts attempt ai at its place in its stage's queue. New
// arrivals, retries and hedges are the newest attempts and nearly always
// belong at the tail; a higher-priority arrival or a crash re-queue, which
// keeps its old arrival, is binary-searched into place.
func (l *replayLoop) queueAttempt(ai int) {
	l.attempts[ai].queued = true
	p := &l.pools[l.attempts[ai].stage]
	q := p.queue
	if n := len(q); n == 0 || l.queueCmp(q[n-1], ai) < 0 {
		p.queue = append(q, ai)
	} else {
		i := sort.Search(n, func(i int) bool { return l.queueCmp(q[i], ai) > 0 })
		p.queue = slices.Insert(q, i, ai)
	}
}

// oldestQueued is the earliest admission time in queue q; never when it is
// empty. Within a priority class a queue is in arrival order, so the scan
// hops from class head to class head by binary search, and stops at once
// when the head's class runs to the tail.
func (l *replayLoop) oldestQueued(q []int) time.Duration {
	oldest := never
	for len(q) > 0 {
		oldest = min(oldest, l.attempts[q[0]].arrival)
		p := l.prio(q[0])
		if l.prio(q[len(q)-1]) == p {
			break
		}
		q = q[sort.Search(len(q), func(i int) bool { return l.prio(q[i]) > p }):]
	}
	return oldest
}

// shouldLaunch is pool s's batching policy: launch when batches are
// unbatched or full, when the oldest queued attempt has waited MaxWait, or
// when nothing else can reach the queue (waiting is pure loss): no trace
// arrival, client timer or enter entry is pending for s or an earlier pool,
// and every earlier pool is empty and idle.
func (l *replayLoop) shouldLaunch(s int) bool {
	p := &l.pools[s]
	cfg := &p.e.cfg
	if cfg.MaxBatch <= 1 || len(p.queue) >= cfg.MaxBatch {
		return true
	}
	drained := l.nextArr >= len(l.order) && len(l.timers) == 0
	for i := 0; drained && i <= s; i++ {
		q := &l.pools[i]
		drained = q.inbound == 0 && (i == s || len(q.queue) == 0 && q.busy == 0)
	}
	return drained || l.now-l.oldestQueued(p.queue) >= cfg.MaxWait
}

// takeBatch moves up to MaxBatch attempts from the head of p's queue into
// l.batch, with their prefix chains and generation lengths in l.bkeys and
// l.outs. A batch never carries two attempts of the same request (racing
// your own duplicate inside one batch is pure waste); skipped duplicates
// stay queued.
func (l *replayLoop) takeBatch(p *rPool) {
	l.batch, l.bkeys, l.outs = l.batch[:0], l.bkeys[:0], l.outs[:0]
	rest := p.queue[:0]
	for i, ai := range p.queue {
		if len(l.batch) == p.e.cfg.MaxBatch {
			rest = append(rest, p.queue[i:]...)
			break
		}
		if req := l.attempts[ai].req; !l.inBatch(req) {
			l.attempts[ai].queued = false
			l.batch = append(l.batch, ai)
			l.bkeys = append(l.bkeys, l.key(ai))
			l.outs = append(l.outs, l.reqs[req].OutTokens)
		} else {
			rest = append(rest, ai)
		}
	}
	p.queue = rest
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

// launch starts batches in pool s while an idle replica and the batching
// policy allow; the routing policy picks which idle replica hosts each
// batch.
func (l *replayLoop) launch(s int) {
	p := &l.pools[s]
	e := p.e
	for len(p.queue) > 0 && l.shouldLaunch(s) {
		r := e.routeIdle(l.now, l.key(p.queue[0]))
		if r == nil {
			return
		}
		l.takeBatch(p)
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
			if w, hit := e.crashIn(ri, l.now+service); hit {
				l.crashBatch(e, r, ri, w)
				continue
			}
		}
		end := l.now + service
		r.startBatch(l.now, end, n, totalEff, maxOut, service)
		e.busyAcc += service
		l.res.Batches++
		p.busy += n
		if e.sink != nil {
			for bi, ai := range l.batch {
				e.emitCache(int64(l.attempts[ai].req)+1, l.now, ri, members[bi].cached, members[bi].total)
			}
			e.emitEvict(l.now, ri, evBefore)
			e.emitBatchStart(l.now, ri, n, totalEff, maxOut, service)
		}
		for bi, ai := range l.batch {
			a := &l.attempts[ai]
			a.start, a.service, a.ri = l.now, service, int32(ri)
			a.n, a.cached, a.total = int32(n), int32(members[bi].cached), int32(members[bi].total)
			l.done.push(end, ai, struct{}{})
		}
		if end > l.res.Makespan {
			l.res.Makespan = end
		}
	}
}

// nextEvent is the earliest future event: a batch completion, an arrival,
// a timer, an enter entry, a queued attempt's deadline, and per pool an
// autoscale tick or an idle replica's scheduled crash. A pool with queued
// attempts also wakes at its batching-window expiry and when a replica
// frees (a restart or warm-up ending); an empty queue has nothing to
// launch there. A batch of zero service time completes at the instant it
// launched, so the loop stays at now to resolve it.
func (l *replayLoop) nextEvent() time.Duration {
	now := l.now
	next := l.done.next()
	if next <= now {
		return now
	}
	next = min(next, l.timers.next(), l.nextExpiry(), l.enter.next())
	if l.nextArr < len(l.order) {
		next = min(next, l.reqs[l.order[l.nextArr]].Arrival)
	}
	for i := range l.pools {
		p := &l.pools[i]
		e := p.e
		if len(p.queue) > 0 {
			if e.cfg.MaxBatch > 1 {
				// Only a future window expiry is an event; an expired
				// window means the queue is waiting on a replica, not on
				// time.
				if t := l.oldestQueued(p.queue) + e.cfg.MaxWait; t > now && t < next {
					next = t
				}
			}
			// Only active replicas are schedulable events: a warming
			// replica's freeAt (its cold-start expiry) counts, a parked
			// one's does not.
			for ri := range e.replicas[:e.active] {
				if t := e.replicas[ri].freeAt; t > now && t < next {
					next = t
				}
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
	}
	if next <= now {
		next = now + time.Nanosecond // safety: time must advance
	}
	return next
}
