package serve

import (
	"fmt"
	"slices"
	"time"

	"embench/internal/rng"
)

// This file is the attempt model of the open-loop event loop in replay.go:
// fault injection (serve.Faults) and client resilience (Request.Deadline,
// RetryPolicy, HedgePolicy, ShedPolicy). With none of them configured each
// request is exactly one attempt, and the hooks below never fire.
//
// The unit of scheduling is an ATTEMPT: one service try of a logical
// request in one stage pool — the original submission, a deadline-triggered
// retry, a hedge duplicate, or the decode stage of a handed-off one (see
// disagg.go). Attempts queue, batch and launch like requests; the logical
// request resolves with the first attempt whose last-stage batch completes
// (ties break toward the earlier attempt), and its remaining attempts are
// cancelled — free while still queued, priced as wasted replica occupancy
// once launched. A replica crash kills the whole in-flight batch: its
// attempts re-enter the first stage's queue with their arrival times intact
// (deadline-expired ones time out), so every injected failure's requests
// are re-served, shed or timed out explicitly — never silently lost. They
// re-enter when the doomed batch launches, not at the crash instant, so a
// victim can restart on another replica before its crash in virtual time.
//
// Everything is deterministic: fault schedules and retry jitter come from
// named RNG streams (per replica slot and per request index respectively),
// every same-instant tie processes in a fixed category order (completions,
// timeouts, timers, arrivals, launches) with index tie-breaks, so a
// replay is a pure function of (cfg, reqs) — byte-identical across reruns
// and worker counts, and its Serving counters merge exactly.
//
// Accounting convention: flow statistics (Requests, Service, QueueWait,
// BatchedSeqs, prompt/cache tokens, LatencyHist) count WINNING attempts
// only, with latency measured from the original arrival. Losing hedges,
// crash-killed batches and abandoned attempts still burn replica occupancy
// (busyAcc, so autoscaler utilization sees failures as scale-up pressure)
// and show in the dedicated counters: Retries, HedgesIssued/HedgeWins,
// TimedOut, ShedRequests, FailedBatches, ReplicaDowntime.

// Outcome labels how a replayed logical request resolved.
type Outcome string

const (
	// OutcomeServed is the zero value: the request completed. Replays
	// without shedding or deadlines never set any other label.
	OutcomeServed Outcome = ""
	// OutcomeShed means admission rejected the request under load (ShedPolicy).
	OutcomeShed Outcome = "shed"
	// OutcomeTimedOut means the deadline expired with no retry budget left.
	OutcomeTimedOut Outcome = "timeout"
)

// rAttempt is one service attempt of a logical request.
type rAttempt struct {
	req     int           // logical request index
	arrival time.Duration // when the attempt entered admission
	// Batch state once launched:
	start, service   time.Duration
	n, cached, total int32 // batch size; the attempt's cached and total prompt tokens
	ri               int32 // replica that hosted the batch
	hedge            bool  // a hedge duplicate (vs original/retry)
	queued           bool  // in its stage's admission queue now
	stage            uint8 // index of the pool the attempt runs in
	prev             int32 // decode stage: the attempt that ran the prefill
}

// rState is one logical request's resilience bookkeeping.
type rState struct {
	retries    int32 // retries used (attempt number of the latest wave)
	wave       int32 // non-hedge attempt generation; hedge timers carry it
	live       int32 // attempts currently queued or in service
	hedged     bool  // a hedge was issued in the current wave
	everHedged bool
	done       bool
}

// rTimer is a scheduled future admission event, the payload of a timers
// calendar entry: a retry re-entry or a hedge issue point.
type rTimer struct {
	hedge bool // a hedge issue point; otherwise a retry re-entry
	req   int
	wave  int32         // hedge: issuing wave (stale timers are ignored)
	dur   time.Duration // retry: the backoff, for the retry event
}

// shedNow reports whether the shed policy rejects an admission of priority
// prio at time t. It reads the first stage's queue, where every request and
// retry is admitted.
func (l *replayLoop) shedNow(t time.Duration, prio int) bool {
	p, q := l.e.cfg.Shed, l.pools[0].queue
	if !p.enabled() || prio < p.Priority {
		return false
	}
	if p.Queue > 0 && len(q) >= p.Queue {
		return true
	}
	return p.Wait > 0 && len(q) > 0 && t-l.oldestQueued(q) >= p.Wait
}

// resolveUnserved resolves a request at time t without serving it: shed
// or timed out.
func (l *replayLoop) resolveUnserved(req int, t time.Duration, out Outcome) {
	st := &l.states[req]
	st.done = true
	l.resolved++
	l.releaseJitter(req)
	rq := l.reqs[req]
	l.res.Completions[req] = Completion{
		Agent: rq.Agent, Arrival: rq.Arrival, Done: t,
		Outcome: out, Retries: int(st.retries), Hedged: st.everHedged,
	}
}

// admit queues a new attempt and schedules its deadline expiry, if any. A
// crash re-queue keeps the attempt's arrival, so this one entry stays its
// expiry for life.
func (l *replayLoop) admit(a rAttempt) {
	l.states[a.req].live++
	l.attempts = append(l.attempts, a)
	ai := len(l.attempts) - 1
	l.queueAttempt(ai)
	if t := l.expiry(ai); t < never {
		l.expire.push(t, ai, struct{}{})
	}
}

// enqueue admits one non-hedge attempt (original or retry) at time t,
// applying the shed policy first. It opens a new wave: the hedge timer (if
// hedging is on) arms against this attempt's entry.
func (l *replayLoop) enqueue(req int, t time.Duration) {
	if l.shedNow(t, l.reqs[req].Priority) {
		l.e.stats.ShedRequests++
		l.resolveUnserved(req, t, OutcomeShed)
		if l.e.sink != nil {
			l.e.emitShed(int64(req)+1, t, l.reqs[req].Priority)
		}
		return
	}
	st := &l.states[req]
	st.wave++
	st.hedged = false
	l.admit(rAttempt{req: req, arrival: t})
	if h := l.e.cfg.Hedge; h.enabled() {
		l.addTimer(t+h.Delay, rTimer{hedge: true, req: req, wave: st.wave})
	}
}

// addTimer schedules tm at time at; same-instant timers fire in insertion
// order.
func (l *replayLoop) addTimer(at time.Duration, tm rTimer) {
	l.timers.push(at, l.nTimers, tm)
	l.nTimers++
}

// attemptLost handles a request losing its last live attempt at te:
// schedule a retry while budget remains, otherwise resolve timed-out. A
// retry that would re-enter admission more than maxSpecDuration after the
// request's arrival is not issued either: each backoff saturates there, but
// hundreds of saturated backoffs would carry re-entry times past
// time.Duration's range.
func (l *replayLoop) attemptLost(req int, te time.Duration) {
	e := l.e
	st := &l.states[req]
	if st.done || st.live > 0 {
		return
	}
	if e.cfg.Retry.enabled() && int(st.retries) < e.cfg.Retry.Max {
		if l.jitter[req] == nil {
			l.jitter[req] = l.retryStream(req)
		}
		back := e.cfg.Retry.backoff(int(st.retries), l.jitter[req])
		if back <= maxSpecDuration-(te-l.reqs[req].Arrival) {
			st.retries++
			e.stats.Retries++
			l.addTimer(te+back, rTimer{req: req, wave: st.retries, dur: back})
			return
		}
	}
	e.stats.TimedOut++
	l.resolveUnserved(req, te, OutcomeTimedOut)
}

// retryStream returns request req's backoff jitter stream. The stream is
// per request INDEX, so a request's backoff schedule is independent of
// when — or on which replica — its attempts ran. A resolved request's
// stream is re-seeded for the next one rather than allocated afresh.
func (l *replayLoop) retryStream(req int) *rng.Stream {
	name := fmt.Sprintf("req-%d", req)
	n := len(l.freeJitter)
	if n == 0 {
		return l.retrySrc.NewStream(name)
	}
	st := l.freeJitter[n-1]
	l.freeJitter = l.freeJitter[:n-1]
	l.retrySrc.Reseed(st, name)
	return st
}

// releaseJitter returns resolved request req's jitter stream, if it drew
// one, to the free list.
func (l *replayLoop) releaseJitter(req int) {
	if l.jitter != nil && l.jitter[req] != nil {
		l.freeJitter = append(l.freeJitter, l.jitter[req])
		l.jitter[req] = nil
	}
}

// timeOutAttempt expires one attempt (already removed from the queue) at
// te: its batch never launched within the deadline.
func (l *replayLoop) timeOutAttempt(ai int, te time.Duration) {
	a := &l.attempts[ai]
	l.states[a.req].live--
	if l.e.sink != nil {
		l.e.emitTimeout(int64(a.req)+1, te, l.reqs[a.req].Deadline)
	}
	l.attemptLost(a.req, te)
}

// expiry is when attempt ai's deadline passes: never for a request
// without one.
func (l *replayLoop) expiry(ai int) time.Duration {
	a := &l.attempts[ai]
	if d := l.reqs[a.req].Deadline; d > 0 {
		if a.arrival > never-d {
			return never // saturate: an unrepresentable expiry never comes
		}
		return a.arrival + d
	}
	return never
}

// nextExpiry is the earliest deadline expiry among queued attempts; never
// when none has one. Expiries of attempts that have left the queue are
// stale, and dropped as they reach the calendar's head.
func (l *replayLoop) nextExpiry() time.Duration {
	for len(l.expire) > 0 && !l.attempts[l.expire[0].id].queued {
		l.expire.pop()
	}
	return l.expire.next()
}

// expireDeadlines times out queued attempts whose deadline is due by now,
// in (expiry, id) order.
func (l *replayLoop) expireDeadlines() {
	for l.nextExpiry() <= l.now {
		x := l.expire.pop()
		p := &l.pools[l.attempts[x.id].stage]
		i, _ := slices.BinarySearchFunc(p.queue, x.id, l.queueCmp)
		p.queue = slices.Delete(p.queue, i, i+1)
		l.attempts[x.id].queued = false
		l.timeOutAttempt(x.id, x.at)
	}
}

// fireTimers runs the timers due by now (retry re-entries, hedge issue
// points) in order.
func (l *replayLoop) fireTimers() {
	e := l.e
	for l.timers.next() <= l.now {
		x := l.timers.pop()
		tm, at := x.v, x.at
		st := &l.states[tm.req]
		if st.done {
			continue
		}
		if !tm.hedge {
			if e.sink != nil {
				e.emitRetry(int64(tm.req)+1, at, tm.dur, int(tm.wave))
			}
			l.enqueue(tm.req, at)
			continue
		}
		// Stale guards: the request moved to a newer wave, already hedged
		// this wave, or has no live attempt to hedge. Hedging into an
		// overloaded queue is counterproductive: the shed policy suppresses
		// the duplicate silently (the original attempt is unaffected).
		if tm.wave != st.wave || st.hedged || st.live < 1 || l.shedNow(at, l.reqs[tm.req].Priority) {
			continue
		}
		st.hedged, st.everHedged = true, true
		e.stats.HedgesIssued++
		l.admit(rAttempt{req: tm.req, hedge: true, arrival: at})
		if e.sink != nil {
			e.emitHedge(int64(tm.req)+1, at)
		}
	}
}

// crashBatch handles a launch on e's replica ri whose span hits crash
// window w: the crash kills the whole batch. It reverts the replica's
// served count, charges the occupancy burned until the crash, and puts
// every member back into the first stage's admission at once (the
// replica's KV state is lost with it) — except members whose deadline has
// passed by the crash, which time out at the crash instant.
func (l *replayLoop) crashBatch(e *Endpoint, r *replica, ri int, w faultWindow) {
	r.requests -= len(l.batch)
	e.busyAcc += w.start - l.now
	e.crashReplica(r, ri, w, len(l.batch))
	for _, ai := range l.batch {
		if w.start >= l.expiry(ai) {
			l.timeOutAttempt(ai, w.start)
		} else {
			l.attempts[ai].stage = 0
			l.queueAttempt(ai)
		}
	}
}
