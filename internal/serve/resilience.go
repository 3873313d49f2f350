package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"embench/internal/rng"
)

// This file is the attempt model of the open-loop event loop in replay.go:
// fault injection (serve.Faults) and client resilience (Request.Deadline,
// RetryPolicy, HedgePolicy, ShedPolicy). With none of them configured each
// request is exactly one attempt, and the hooks below never fire.
//
// The unit of scheduling is an ATTEMPT: one service try of a logical
// request — the original submission, a deadline-triggered retry, or a hedge
// duplicate. Attempts queue, batch and launch like requests; the logical
// request resolves with the first attempt whose batch completes (ties break
// toward the earlier attempt), and its remaining attempts are cancelled —
// free while still queued, priced as wasted replica occupancy once
// launched. A replica crash kills the whole in-flight batch: its attempts
// re-enter the admission queue at the crash instant with their arrival
// times intact (deadline-expired ones time out right there), so every
// injected failure's requests are re-served, shed or timed out explicitly —
// never silently lost.
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
// only — the work the client actually received, with latency measured from
// the original arrival. Losing hedges, crash-killed batches and abandoned
// attempts still burn replica occupancy (busyAcc, so autoscaler utilization
// sees failures as scale-up pressure) and are visible through the dedicated
// counters: Retries, HedgesIssued/HedgeWins, TimedOut, ShedRequests,
// FailedBatches, ReplicaDowntime.

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
}

// end is the completion time of the attempt's batch.
func (a *rAttempt) end() time.Duration { return a.start + a.service }

// rState is one logical request's resilience bookkeeping.
type rState struct {
	retries    int32 // retries used (attempt number of the latest wave)
	wave       int32 // non-hedge attempt generation; hedge timers carry it
	live       int32 // attempts currently queued or in service
	hedged     bool  // a hedge was issued in the current wave
	everHedged bool
	done       bool
}

// rTimer is a scheduled future admission event: a retry re-entry or a hedge
// issue point.
type rTimer struct {
	at    time.Duration
	hedge bool // a hedge issue point; otherwise a retry re-entry
	req   int
	wave  int32         // hedge: issuing wave (stale timers are ignored)
	dur   time.Duration // retry: the backoff, for the retry event
}

// shedNow reports whether the shed policy rejects an admission of priority
// prio at time t.
func (l *replayLoop) shedNow(t time.Duration, prio int) bool {
	p := l.e.cfg.Shed
	if !p.enabled() || prio < p.Priority {
		return false
	}
	if p.Queue > 0 && len(l.queue) >= p.Queue {
		return true
	}
	return p.Wait > 0 && len(l.queue) > 0 && t-l.oldestQueued() >= p.Wait
}

// resolveUnserved resolves a request at time t without serving it: shed
// or timed out.
func (l *replayLoop) resolveUnserved(req int, t time.Duration, out Outcome) {
	st := &l.states[req]
	st.done = true
	l.resolved++
	rq := l.reqs[req]
	l.res.Completions[req] = Completion{
		Agent: rq.Agent, Arrival: rq.Arrival, Done: t,
		Outcome: out, Retries: int(st.retries), Hedged: st.everHedged,
	}
}

// admit queues a new attempt.
func (l *replayLoop) admit(a rAttempt) {
	l.states[a.req].live++
	l.attempts = append(l.attempts, a)
	l.queue = append(l.queue, len(l.attempts)-1)
	l.dirty = true
	l.expireAt = min(l.expireAt, l.expiry(len(l.attempts)-1))
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
		l.addTimer(rTimer{at: t + h.Delay, hedge: true, req: req, wave: st.wave})
	}
}

// addTimer schedules tm. Timers stay sorted by time, and a timer goes
// after every one already due no later, so same-instant timers fire in
// insertion order.
func (l *replayLoop) addTimer(tm rTimer) {
	i := sort.Search(len(l.timers), func(i int) bool { return l.timers[i].at > tm.at })
	l.timers = slices.Insert(l.timers, i, tm)
}

// attemptLost handles a request losing its last live attempt at te:
// schedule a retry while budget remains, otherwise resolve timed-out.
func (l *replayLoop) attemptLost(req int, te time.Duration) {
	e := l.e
	st := &l.states[req]
	if st.done || st.live > 0 {
		return
	}
	if e.cfg.Retry.enabled() && int(st.retries) < e.cfg.Retry.Max {
		st.retries++
		e.stats.Retries++
		if l.jitter == nil {
			l.jitter = make([]*rng.Stream, len(l.reqs))
		}
		if l.jitter[req] == nil {
			// Retry jitter shares the fault seed's root (zero is a valid
			// seed): the stream is per request INDEX, so a request's backoff
			// schedule is independent of when — or on which replica — its
			// attempts ran.
			l.jitter[req] = rng.New(e.cfg.Faults.Seed).Sub("serve/retry").NewStream(fmt.Sprintf("req-%d", req))
		}
		back := e.cfg.Retry.backoff(int(st.retries)-1, l.jitter[req])
		l.addTimer(rTimer{at: te + back, req: req, wave: st.retries, dur: back})
		return
	}
	e.stats.TimedOut++
	l.resolveUnserved(req, te, OutcomeTimedOut)
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
		return a.arrival + d
	}
	return never
}

// expireDeadlines times out queued attempts whose deadline is due by now,
// in (expiry, id) order.
func (l *replayLoop) expireDeadlines() {
	due := l.due[:0]
	l.expireAt = never
	l.queue = slices.DeleteFunc(l.queue, func(ai int) bool {
		t := l.expiry(ai)
		if t <= l.now {
			due = append(due, ai)
			return true
		}
		l.expireAt = min(l.expireAt, t)
		return false
	})
	slices.SortFunc(due, func(a, b int) int {
		if c := cmp.Compare(l.expiry(a), l.expiry(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, ai := range due {
		l.timeOutAttempt(ai, l.expiry(ai))
	}
	l.due = due
}

// fireTimers runs the timers due by now (retry re-entries, hedge issue
// points) in order.
func (l *replayLoop) fireTimers() {
	e := l.e
	for len(l.timers) > 0 && l.timers[0].at <= l.now {
		tm := l.timers[0]
		l.timers = l.timers[1:]
		st := &l.states[tm.req]
		if st.done {
			continue
		}
		if !tm.hedge {
			if e.sink != nil {
				e.emitRetry(int64(tm.req)+1, tm.at, tm.dur, int(tm.wave))
			}
			l.enqueue(tm.req, tm.at)
			continue
		}
		// Stale guards: the request moved to a newer wave, already hedged
		// this wave, or has no live attempt to hedge. Hedging into an
		// overloaded queue is counterproductive: the shed policy suppresses
		// the duplicate silently (the original attempt is unaffected).
		if tm.wave != st.wave || st.hedged || st.live < 1 || l.shedNow(tm.at, l.reqs[tm.req].Priority) {
			continue
		}
		st.hedged, st.everHedged = true, true
		e.stats.HedgesIssued++
		l.admit(rAttempt{req: tm.req, hedge: true, arrival: tm.at})
		if e.sink != nil {
			e.emitHedge(int64(tm.req)+1, tm.at)
		}
	}
}

// crashBatch handles a launch whose span hits crash window w on replica ri:
// the crash kills the whole batch. It reverts the replica's served count,
// charges the occupancy burned until the crash, and puts every member back
// into admission at the crash instant — except members whose deadline has
// already passed, which time out right there.
func (l *replayLoop) crashBatch(r *replica, ri int, w faultWindow) {
	e := l.e
	r.requests -= len(l.batch)
	e.busyAcc += w.start - l.now
	e.crashReplica(r, ri, w, len(l.batch))
	for _, ai := range l.batch {
		if w.start >= l.expiry(ai) {
			l.timeOutAttempt(ai, w.start)
		} else {
			l.queue = append(l.queue, ai)
			l.dirty = true
			l.expireAt = min(l.expireAt, l.expiry(ai))
		}
	}
	l.sortQueue()
}
