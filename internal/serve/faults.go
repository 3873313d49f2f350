package serve

import (
	"fmt"
	"math"
	"time"

	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// This file is the failure model: seeded per-replica crash-restart and
// straggler processes (Faults), the client-resilience policies replayed
// against them (RetryPolicy, HedgePolicy, ShedPolicy), and the endpoint
// machinery that applies scheduled faults to replica timelines.
//
// Fault schedules are drawn from named RNG streams in the GenerateTraffic
// style — one stream per replica index, rooted at Faults.Seed — so a
// schedule is byte-reproducible per seed and INDEPENDENT of traffic: adding
// tenants, changing arrival processes or swapping routing policies cannot
// move a crash. That independence is also what makes closed-loop fault
// injection tractable: the schedule is known a priori, so a batch admission
// can check synchronously whether its service span [start, end) contains a
// crash, fail the batch at the crash instant, and re-enter its requests
// into admission — no speculative execution to unwind, and by induction no
// committed batch ever spans a crash.
//
// The zero Faults value disables everything: Endpoint.fx stays nil, every
// serving-path hook below is guarded on it, and the disabled path is
// byte-identical to fault-free builds (goldens, JSONL, allocations).

// Faults configures deterministic fault injection for an endpoint's
// replicas. Two independent processes per replica:
//
//   - Crash-restart: alternating up ~ Exp(MTBF) and down ~ Exp(MTTR)
//     phases. A crash kills the replica's in-flight batch (its requests
//     re-enter admission), destroys the replica's prefix/KV cache (the
//     restart comes back cold, the lost warm tokens priced through the
//     eviction accounting like any capacity flush), and parks the replica
//     until the repair window ends. Routing avoids down replicas; the
//     autoscaler never retires one (a down replica is not idle).
//   - Straggler episodes: alternating gap ~ Exp(StragglerEvery) and length
//     ~ Exp(StragglerFor) windows during which every batch STARTING on the
//     replica pays StragglerFactor × its service time (transient slowdown:
//     thermal throttling, a noisy neighbor, a failing NIC).
type Faults struct {
	// MTBF is the mean up-phase length (mean time between failures) per
	// replica; <= 0 disables the crash process.
	MTBF time.Duration
	// MTTR is the mean repair-window length (default 30s when crashes are
	// enabled).
	MTTR time.Duration
	// StragglerEvery is the mean gap between straggler episodes; <= 0
	// disables the straggler process.
	StragglerEvery time.Duration
	// StragglerFor is the mean episode length (default 30s when stragglers
	// are enabled).
	StragglerFor time.Duration
	// StragglerFactor multiplies the service time of batches starting
	// inside an episode (default 3; must be in [1, 1000]).
	StragglerFactor float64
	// Seed roots the fault schedules. It is deliberately separate from the
	// traffic seed: faults are a property of the hardware, not the workload.
	Seed uint64
}

// enabled reports whether any fault process is active.
func (f Faults) enabled() bool { return f.MTBF > 0 || f.StragglerEvery > 0 }

// withDefaults fills zero fields of the enabled processes.
func (f Faults) withDefaults() Faults {
	if f.MTBF > 0 && f.MTTR <= 0 {
		f.MTTR = 30 * time.Second
	}
	if f.StragglerEvery > 0 {
		if f.StragglerFor <= 0 {
			f.StragglerFor = 30 * time.Second
		}
		if f.StragglerFactor < 1 {
			f.StragglerFactor = 3
		}
	}
	return f
}

// ParseFaults parses a faults spec in the shared spec grammar (spec.go,
// docs/EXPERIMENTS.md). "on" is the default crash process
// (mtbf=5m,mttr=30s); the fields are mtbf=DUR, mttr=DUR, straggle=DUR (mean
// gap between straggler episodes), for=DUR (mean episode length), slow=F
// (straggler service multiplier) and seed=UINT. An explicit spec must set
// mtbf or straggle, and pass Config.Validate's cross-field rule that mttr
// spans at most maxRepairGaps straggler gaps. The config is the zero value
// on error.
func ParseFaults(s string) (Faults, error) {
	var f Faults
	err := parseSpec(&f, "faults", s, &Faults{MTBF: 5 * time.Minute, MTTR: 30 * time.Second},
		Faults.enabled, "mtbf=DUR or straggle=DUR",
		periodField("mtbf", &f.MTBF),
		durField("mttr", &f.MTTR, 0),
		periodField("straggle", &f.StragglerEvery),
		durField("for", &f.StragglerFor, 0),
		floatField("slow", &f.StragglerFactor, slowRule),
		uintField("seed", &f.Seed))
	if err == nil {
		if err = (Config{Faults: f}).Validate(); err != nil {
			f = Faults{}
		}
	}
	return f, err
}

// RetryPolicy re-issues a replayed request after a deadline timeout:
// exponential backoff with seeded jitter, bounded by a per-request budget.
// The zero value disables retries.
type RetryPolicy struct {
	// Max is the per-request retry budget; <= 0 disables retries.
	Max int
	// Base is the first backoff delay (default 500ms).
	Base time.Duration
	// Factor multiplies the backoff per attempt (default 2).
	Factor float64
	// Jitter scales each backoff by a seeded uniform factor in
	// [1, 1+Jitter); 0 means deterministic un-jittered backoff.
	Jitter float64
}

// enabled reports whether the policy does anything.
func (p RetryPolicy) enabled() bool { return p.Max > 0 }

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if !p.enabled() {
		return RetryPolicy{}
	}
	if p.Base <= 0 {
		p.Base = 500 * time.Millisecond
	}
	if p.Factor <= 0 {
		p.Factor = 2
	}
	return p
}

// backoff prices the delay before retry number k (0-based), drawing jitter
// from the request's own stream so retry schedules are independent across
// requests and byte-reproducible per seed. It saturates at maxSpecDuration,
// so the retry time stays representable however large Base·Factor^k grows.
func (p RetryPolicy) backoff(k int, st *rng.Stream) time.Duration {
	d := float64(p.Base)
	for i := 0; i < k; i++ {
		d *= p.Factor
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*st.Float64()
	}
	return time.Duration(min(d, float64(maxSpecDuration)))
}

// ParseRetry parses a retry spec in the shared spec grammar (spec.go,
// docs/EXPERIMENTS.md). "on" is max=2,jitter=0.2 (base 500ms and factor 2
// by default); the fields are max=N, base=DUR, factor=F and jitter=F. An
// explicit spec must set max. The policy is the zero value on error.
func ParseRetry(s string) (RetryPolicy, error) {
	var p RetryPolicy
	err := parseSpec(&p, "retry", s, &RetryPolicy{Max: 2, Jitter: 0.2},
		RetryPolicy.enabled, "max=N",
		intField("max", &p.Max, 1),
		durField("base", &p.Base, time.Nanosecond),
		floatField("factor", &p.Factor, factorRule),
		floatField("jitter", &p.Jitter, jitterRule))
	return p, err
}

// HedgePolicy issues a duplicate copy of a replayed request that has waited
// Delay without completing; the first completion wins and the loser is
// cancelled (free if still queued, priced as wasted service if its batch
// already launched). The zero value disables hedging.
type HedgePolicy struct {
	// Delay is how long a request may remain incomplete before its hedge
	// enters admission; <= 0 disables hedging.
	Delay time.Duration
}

// enabled reports whether the policy does anything.
func (p HedgePolicy) enabled() bool { return p.Delay > 0 }

// ParseHedge parses a hedge spec in the shared spec grammar (spec.go,
// docs/EXPERIMENTS.md): "on" is delay=2s, and the one field is delay=DUR.
// The policy is the zero value on error.
func ParseHedge(s string) (HedgePolicy, error) {
	var p HedgePolicy
	err := parseSpec(&p, "hedge", s, &HedgePolicy{Delay: 2 * time.Second},
		HedgePolicy.enabled, "delay=DUR",
		durField("delay", &p.Delay, time.Nanosecond))
	return p, err
}

// ShedPolicy is priority-aware admission load shedding for replayed
// requests: an arriving request whose Priority is at or above the Priority
// floor is rejected — surfaced as a shed Completion, never silently
// dropped — when the admission queue is deeper than Queue entries or its
// oldest entry has waited at least Wait. The zero value disables shedding.
type ShedPolicy struct {
	// Queue sheds arrivals when the admission queue holds >= Queue
	// attempts; 0 disables the depth trigger.
	Queue int
	// Wait sheds arrivals when the oldest queued attempt has waited
	// >= Wait; 0 disables the wait trigger.
	Wait time.Duration
	// Priority is the lowest (most important) priority class that may be
	// shed: requests with Priority >= this are sheddable, lower classes are
	// always admitted. The default 0 sheds any class.
	Priority int
}

// enabled reports whether the policy does anything.
func (p ShedPolicy) enabled() bool { return p.Queue > 0 || p.Wait > 0 }

// ParseShed parses a shed spec in the shared spec grammar (spec.go,
// docs/EXPERIMENTS.md). "on" is queue=32; the fields are queue=N, wait=DUR
// and prio=N. An explicit spec must set queue or wait. The policy is the
// zero value on error.
func ParseShed(s string) (ShedPolicy, error) {
	var p ShedPolicy
	err := parseSpec(&p, "shed", s, &ShedPolicy{Queue: 32},
		ShedPolicy.enabled, "queue=N or wait=DUR",
		intField("queue", &p.Queue, 1),
		durField("wait", &p.Wait, time.Nanosecond),
		intField("prio", &p.Priority, math.MinInt))
	return p, err
}

// faultWindow is one scheduled down (or straggler) interval.
type faultWindow struct{ start, end time.Duration }

// faultClock is one replica's fault-schedule state: the crash stream with
// its generation frontier and not-yet-applied down windows, the straggler
// stream with its current episode window, and the bookkeeping the serving
// path reads (downUntil for routing, batchFactor for join pricing).
type faultClock struct {
	st      *rng.Stream   // crash process (nil when crashes disabled)
	at      time.Duration // crash schedule generated through this time
	pending []faultWindow // generated down windows, consumed in order

	stragSt *rng.Stream // straggler process (nil when disabled)
	strag   faultWindow // first drawn episode window ending after the latest query

	downUntil   time.Duration // end of the applied down window covering now
	batchFactor float64       // straggler factor of the in-flight batch (joins)
}

// faultState is an endpoint's fault machinery; nil when Faults is disabled.
type faultState struct {
	cfg    Faults
	clocks []faultClock
	first  int // deployment slot of replica 0
}

// newFaultState seeds one clock per pool replica, replica i on deployment
// slot first+i. Stream names are indexed by slot, so a slot's schedule is
// independent of the pool size and of every other slot's.
func newFaultState(cfg Faults, replicas, first int) *faultState {
	fx := &faultState{cfg: cfg, clocks: make([]faultClock, replicas), first: first}
	src := rng.New(cfg.Seed).Sub("serve/faults")
	for i := range fx.clocks {
		if cfg.MTBF > 0 {
			fx.clocks[i].st = src.NewStream(fmt.Sprintf("replica-%d", first+i))
		}
		if cfg.StragglerEvery > 0 {
			fx.clocks[i].stragSt = src.NewStream(fmt.Sprintf("straggler-%d", first+i))
		}
	}
	return fx
}

// faultDur is expDur clamped positive, guaranteeing schedule progress even
// on a zero-density draw.
func faultDur(st *rng.Stream, mean time.Duration) time.Duration {
	if d := expDur(st, mean); d > 0 {
		return d
	}
	return time.Nanosecond
}

// gen extends the crash schedule until its frontier passes t: every down
// window starting at or before t exists in pending afterwards.
func (c *faultClock) gen(cfg Faults, t time.Duration) {
	if c.st == nil {
		return
	}
	for c.at <= t {
		up := faultDur(c.st, cfg.MTBF)
		down := faultDur(c.st, cfg.MTTR)
		c.pending = append(c.pending, faultWindow{start: c.at + up, end: c.at + up + down})
		c.at += up + down
	}
}

// fxDown reports whether active replica i sits inside an applied crash
// window at virtual time t. Routing skips down replicas — they take no
// traffic until their restart — unless every candidate is down, in which
// case placement falls back to earliest availability (the restored freeAt).
func (e *Endpoint) fxDown(i int, t time.Duration) bool {
	return e.fx != nil && e.fx.clocks[i].downUntil > t
}

// applyFaults applies every crash window that has begun by virtual time t
// to the active replicas' timelines: seal and flush the cache (the restart
// is cold; the destroyed warm tokens are priced as capacity evictions),
// push freeAt past the repair window, accumulate ReplicaDowntime, and emit
// replica_down/replica_up. By induction no committed batch spans a crash
// (admissions check their span), so a window being applied always finds the
// replica idle — in-flight work was already failed at admission time.
func (e *Endpoint) applyFaults(t time.Duration) {
	for i := 0; i < e.active; i++ {
		c := &e.fx.clocks[i]
		if c.st == nil {
			continue
		}
		c.gen(e.fx.cfg, t)
		for len(c.pending) > 0 && c.pending[0].start <= t {
			w := c.pending[0]
			c.pending = c.pending[1:]
			e.crashReplica(&e.replicas[i], i, w, 0)
		}
	}
}

// crashReplica executes one crash window on a replica. killed is the number
// of in-flight sequences the crash destroyed (0 for an idle-replica crash);
// killed requests re-enter admission at the caller, so none are lost.
func (e *Endpoint) crashReplica(r *replica, ri int, w faultWindow, killed int) {
	e.sealFrontier(r)
	var live int
	if e.sink != nil {
		live, _, _ = r.cache.stats()
	}
	r.cache.flush()
	if r.freeAt < w.end {
		r.freeAt = w.end
	}
	e.fx.clocks[ri].downUntil = w.end
	e.stats.ReplicaDowntime = addSpan(e.stats.ReplicaDowntime, w.end-w.start)
	if killed > 0 {
		e.stats.FailedBatches++
	}
	if e.sink != nil {
		e.sink.Event(obs.Event{
			Kind: obs.KindReplicaDown, T: w.start, Shard: e.shard, Replica: ri,
			Tokens: live, Batch: killed, Dur: w.end - w.start,
		})
		e.sink.Event(obs.Event{
			Kind: obs.KindReplicaUp, T: w.end, Shard: e.shard, Replica: ri,
		})
	}
}

// crashIn pops and returns the first scheduled crash window intersecting
// a batch span ending at end on replica ri (see crashWould). The caller
// MUST apply a hit via crashReplica — the window is consumed. applyFaults
// has already run at the span's routing time, so pending windows never
// start before the span does.
func (e *Endpoint) crashIn(ri int, end time.Duration) (w faultWindow, hit bool) {
	if hit = e.crashWould(ri, end); hit {
		c := &e.fx.clocks[ri]
		w, c.pending = c.pending[0], c.pending[1:]
	}
	return w, hit
}

// crashWould reports, without consuming anything, whether a batch ending at
// end on replica ri would hit a scheduled crash. Join admissions probe with
// it before mutating the cache.
func (e *Endpoint) crashWould(ri int, end time.Duration) bool {
	c := &e.fx.clocks[ri]
	if c.st == nil {
		return false
	}
	c.gen(e.fx.cfg, end)
	return len(c.pending) > 0 && c.pending[0].start < end
}

// applyIdleCrashes applies every pending crash window on replica ri that
// opens before virtual time t: the replica is idle (or warming up) across
// [now, t), so each such window is an idle crash that pushes its
// availability back. Callers re-read r.freeAt afterwards — an applied
// window may move it past t.
func (e *Endpoint) applyIdleCrashes(r *replica, ri int, t time.Duration) {
	c := &e.fx.clocks[ri]
	if c.st == nil {
		return
	}
	for {
		c.gen(e.fx.cfg, t)
		if len(c.pending) == 0 || c.pending[0].start >= t {
			return
		}
		w := c.pending[0]
		c.pending = c.pending[1:]
		e.crashReplica(r, ri, w, 0)
		if r.freeAt > t {
			t = r.freeAt
		}
	}
}

// joinSafe reports whether joining the keyed request onto r's in-flight
// frontier batch keeps the extended batch clear of r's next scheduled
// crash. It prices the join through joinedEnd, as the join itself does,
// but without touching the cache (an insertion cannot change its own
// batch's service time), so refusing the join leaves no state to unwind —
// the request simply falls through to the new-batch path (launch).
func (e *Endpoint) joinSafe(r *replica, k promptKey, out int) bool {
	eff := e.discountedEff(r.cache.matchKey(k), k.total)
	return !e.crashWould(e.rindex(r), e.joinedEnd(r, eff, out))
}

// dropFaultsBefore discards crash windows that ended entirely while the
// replica was parked (autoscaler scale-up calls it on reactivation): a
// parked replica serves nothing, so downtime it slept through is neither
// counted nor applied. Windows overlapping the activation remain pending.
func (e *Endpoint) dropFaultsBefore(ri int, t time.Duration) {
	c := &e.fx.clocks[ri]
	if c.st == nil {
		return
	}
	c.gen(e.fx.cfg, t)
	for len(c.pending) > 0 && c.pending[0].end <= t {
		c.pending = c.pending[1:]
	}
}

// stragFactor reports the service-time multiplier for a batch STARTING on
// replica ri at virtual time t: StragglerFactor inside an episode window, 1
// outside. A replica's queries never go back in time (replay launches
// follow the event clock; a closed-loop batch starts no earlier than its
// replica's freeAt, which never decreases), so the clock keeps only the
// first window ending after the latest query.
func (e *Endpoint) stragFactor(ri int, t time.Duration) float64 {
	c := &e.fx.clocks[ri]
	if c.stragSt == nil {
		return 1
	}
	cfg := e.fx.cfg
	for c.strag.end <= t {
		start := c.strag.end + faultDur(c.stragSt, cfg.StragglerEvery)
		c.strag = faultWindow{start: start, end: start + faultDur(c.stragSt, cfg.StragglerFor)}
	}
	if t >= c.strag.start {
		return cfg.StragglerFactor
	}
	return 1
}

// nextFault reports the earliest pending crash-window start after t across
// active replicas — the replay event loop treats it as a wake-up so idle
// crashes apply (and emit) at their scheduled instants. Returns false when
// crashes are disabled.
func (e *Endpoint) nextFault(t time.Duration) (time.Duration, bool) {
	if e.fx == nil {
		return 0, false
	}
	best := never
	found := false
	for i := 0; i < e.active; i++ {
		c := &e.fx.clocks[i]
		if c.st == nil {
			continue
		}
		for len(c.pending) == 0 {
			c.gen(e.fx.cfg, c.at)
		}
		if w := c.pending[0]; w.start > t && w.start < best {
			best, found = w.start, true
		}
	}
	return best, found
}
