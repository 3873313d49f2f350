package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
	// inside an episode (default 3; must be >= 1).
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

// validate rejects field values that cannot describe a fault process.
func (f Faults) validate() error {
	if f.MTBF < 0 || f.MTTR < 0 || f.StragglerEvery < 0 || f.StragglerFor < 0 {
		return fmt.Errorf("serve: fault durations must be >= 0")
	}
	if f.StragglerFactor != 0 && f.StragglerFactor < 1 {
		return fmt.Errorf("serve: straggler factor must be >= 1, got %v", f.StragglerFactor)
	}
	return nil
}

// ParseFaults converts a CLI/config string into a Faults config. Accepted
// forms, following ParseAutoscale:
//
//	""       disabled (the zero config)
//	"off"    disabled
//	"on"     the default crash process (mtbf=5m,mttr=30s)
//	"k=v,.." explicit fields: mtbf=DUR, mttr=DUR, straggle=DUR (mean gap
//	         between straggler episodes), for=DUR (mean episode length),
//	         slow=FLOAT (straggler service multiplier), seed=UINT
//
// The returned config is the zero value on error — not a usable fallback —
// so a caller that drops the error cannot silently run fault-free where the
// user asked for faults.
func ParseFaults(s string) (Faults, error) {
	switch s {
	case "", "off":
		return Faults{}, nil
	case "on":
		return Faults{MTBF: 5 * time.Minute, MTTR: 30 * time.Second}, nil
	}
	var f Faults
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Faults{}, fmt.Errorf("serve: bad faults field %q (want key=value; off|on|mtbf=DUR,mttr=DUR,straggle=DUR,for=DUR,slow=F,seed=N)", part)
		}
		switch k {
		case "mtbf", "mttr", "straggle", "for":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Faults{}, fmt.Errorf("serve: bad faults %s %q (want a non-negative duration like 5m)", k, v)
			}
			switch k {
			case "mtbf":
				f.MTBF = d
			case "mttr":
				f.MTTR = d
			case "straggle":
				f.StragglerEvery = d
			case "for":
				f.StragglerFor = d
			}
		case "slow":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 1 {
				return Faults{}, fmt.Errorf("serve: bad faults slow %q (want a factor >= 1)", v)
			}
			f.StragglerFactor = x
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Faults{}, fmt.Errorf("serve: bad faults seed %q (want an unsigned integer)", v)
			}
			f.Seed = n
		default:
			return Faults{}, fmt.Errorf("serve: unknown faults field %q (mtbf|mttr|straggle|for|slow|seed)", k)
		}
	}
	if !f.enabled() {
		return Faults{}, fmt.Errorf("serve: faults spec %q enables nothing (set mtbf=DUR or straggle=DUR, or use \"on\")", s)
	}
	return f, nil
}

// RetryPolicy re-issues a replayed request after a deadline timeout:
// exponential backoff with seeded jitter, bounded by a per-request budget.
// The zero value disables retries. Client resilience acts in open-loop
// replay (serve.Replay — the front-door model); closed-loop episode serving
// resolves calls synchronously and is covered by server-side crash
// re-admission instead.
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
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// backoff prices the delay before retry number k (0-based), drawing jitter
// from the request's own stream so retry schedules are independent across
// requests and byte-reproducible per seed.
func (p RetryPolicy) backoff(k int, st *rng.Stream) time.Duration {
	d := float64(p.Base)
	for i := 0; i < k; i++ {
		d *= p.Factor
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*st.Float64()
	}
	return time.Duration(d)
}

// ParseRetry converts a CLI/config string into a RetryPolicy: ""/"off"
// disabled, "on" the default policy (max=2,base=500ms,factor=2,jitter=0.2),
// or explicit max=N,base=DUR,factor=F,jitter=F fields. Zero value on error.
func ParseRetry(s string) (RetryPolicy, error) {
	switch s {
	case "", "off":
		return RetryPolicy{}, nil
	case "on":
		return RetryPolicy{Max: 2, Jitter: 0.2}, nil
	}
	var p RetryPolicy
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return RetryPolicy{}, fmt.Errorf("serve: bad retry field %q (want key=value; off|on|max=N,base=DUR,factor=F,jitter=F)", part)
		}
		switch k {
		case "max":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return RetryPolicy{}, fmt.Errorf("serve: bad retry max %q (want a positive integer)", v)
			}
			p.Max = n
		case "base":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return RetryPolicy{}, fmt.Errorf("serve: bad retry base %q (want a positive duration)", v)
			}
			p.Base = d
		case "factor":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x <= 0 {
				return RetryPolicy{}, fmt.Errorf("serve: bad retry factor %q (want > 0)", v)
			}
			p.Factor = x
		case "jitter":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 0 {
				return RetryPolicy{}, fmt.Errorf("serve: bad retry jitter %q (want >= 0)", v)
			}
			p.Jitter = x
		default:
			return RetryPolicy{}, fmt.Errorf("serve: unknown retry field %q (max|base|factor|jitter)", k)
		}
	}
	if p.Max < 1 {
		return RetryPolicy{}, fmt.Errorf("serve: retry spec %q needs max=N >= 1 (or use \"on\")", s)
	}
	return p, nil
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

// ParseHedge converts a CLI/config string into a HedgePolicy: ""/"off"
// disabled, "on" the default (delay=2s), or delay=DUR. Zero value on error.
func ParseHedge(s string) (HedgePolicy, error) {
	switch s {
	case "", "off":
		return HedgePolicy{}, nil
	case "on":
		return HedgePolicy{Delay: 2 * time.Second}, nil
	}
	var p HedgePolicy
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k != "delay" {
			return HedgePolicy{}, fmt.Errorf("serve: bad hedge field %q (want off|on|delay=DUR)", part)
		}
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return HedgePolicy{}, fmt.Errorf("serve: bad hedge delay %q (want a positive duration)", v)
		}
		p.Delay = d
	}
	if p.Delay <= 0 {
		return HedgePolicy{}, fmt.Errorf("serve: hedge spec %q needs delay=DUR > 0 (or use \"on\")", s)
	}
	return p, nil
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

// ParseShed converts a CLI/config string into a ShedPolicy: ""/"off"
// disabled, "on" the default (queue=32), or queue=N,wait=DUR,prio=N fields.
// Zero value on error.
func ParseShed(s string) (ShedPolicy, error) {
	switch s {
	case "", "off":
		return ShedPolicy{}, nil
	case "on":
		return ShedPolicy{Queue: 32}, nil
	}
	var p ShedPolicy
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return ShedPolicy{}, fmt.Errorf("serve: bad shed field %q (want key=value; off|on|queue=N,wait=DUR,prio=N)", part)
		}
		switch k {
		case "queue":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ShedPolicy{}, fmt.Errorf("serve: bad shed queue %q (want a positive integer)", v)
			}
			p.Queue = n
		case "wait":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return ShedPolicy{}, fmt.Errorf("serve: bad shed wait %q (want a positive duration)", v)
			}
			p.Wait = d
		case "prio":
			n, err := strconv.Atoi(v)
			if err != nil {
				return ShedPolicy{}, fmt.Errorf("serve: bad shed prio %q (want an integer)", v)
			}
			p.Priority = n
		default:
			return ShedPolicy{}, fmt.Errorf("serve: unknown shed field %q (queue|wait|prio)", k)
		}
	}
	if !p.enabled() {
		return ShedPolicy{}, fmt.Errorf("serve: shed spec %q enables nothing (set queue=N or wait=DUR, or use \"on\")", s)
	}
	return p, nil
}

// faultWindow is one scheduled down (or straggler) interval.
type faultWindow struct{ start, end time.Duration }

// faultClock is one replica's fault-schedule state: the crash stream with
// its generation frontier and not-yet-applied down windows, the straggler
// stream with its memoized episode windows, and the bookkeeping the serving
// path reads (downUntil for routing, batchFactor for join pricing).
type faultClock struct {
	st      *rng.Stream   // crash process (nil when crashes disabled)
	at      time.Duration // crash schedule generated through this time
	pending []faultWindow // generated down windows, consumed in order

	stragSt *rng.Stream   // straggler process (nil when disabled)
	stragAt time.Duration // straggler schedule generated through this time
	strag   []faultWindow // memoized episode windows (queried, never consumed)

	downUntil   time.Duration // end of the applied down window covering now
	batchFactor float64       // straggler factor of the in-flight batch (joins)
}

// faultState is an endpoint's fault machinery; nil when Faults is disabled.
type faultState struct {
	cfg    Faults
	clocks []faultClock
}

// newFaultState seeds one clock per pool replica. Stream names are indexed
// by replica slot, so replica i's schedule is independent of the pool size
// and of every other replica's.
func newFaultState(cfg Faults, replicas int) *faultState {
	fx := &faultState{cfg: cfg, clocks: make([]faultClock, replicas)}
	src := rng.New(cfg.Seed).Sub("serve/faults")
	for i := range fx.clocks {
		if cfg.MTBF > 0 {
			fx.clocks[i].st = src.NewStream(fmt.Sprintf("replica-%d", i))
		}
		if cfg.StragglerEvery > 0 {
			fx.clocks[i].stragSt = src.NewStream(fmt.Sprintf("straggler-%d", i))
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
	e.stats.ReplicaDowntime += w.end - w.start
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
// the batch span [start, end) on replica ri. The caller MUST apply a hit
// via crashReplica — the window is consumed. applyFaults has already run at
// the span's routing time, so pending windows never start before start.
func (e *Endpoint) crashIn(ri int, start, end time.Duration) (faultWindow, bool) {
	c := &e.fx.clocks[ri]
	if c.st == nil {
		return faultWindow{}, false
	}
	c.gen(e.fx.cfg, end)
	if len(c.pending) > 0 && c.pending[0].start < end {
		w := c.pending[0]
		c.pending = c.pending[1:]
		return w, true
	}
	return faultWindow{}, false
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
// crash. It previews the join's pricing without touching the cache (an
// insertion cannot change its own batch's service time), so refusing the
// join leaves no state to unwind — the request simply falls through to the
// new-batch path.
func (e *Endpoint) joinSafe(r *replica, k promptKey, out int) bool {
	ri := e.rindex(r)
	cached := r.cache.matchKey(k)
	eff := r.batchTok + e.discountedEff(cached, k.total)
	o := r.batchOut
	if out > o {
		o = out
	}
	svc := e.cfg.Profile.BatchServiceTime(r.batchN+1, eff, o)
	if f := e.fx.clocks[ri].batchFactor; f > 1 {
		svc = time.Duration(float64(svc) * f)
	}
	end := r.batchStart + svc
	if end < r.batchEnd {
		end = r.batchEnd
	}
	return !e.crashWould(ri, end)
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
// outside. Windows are memoized per replica, so repeated queries (and the
// replay event loop's non-monotone probes) are pure lookups.
func (e *Endpoint) stragFactor(ri int, t time.Duration) float64 {
	c := &e.fx.clocks[ri]
	if c.stragSt == nil {
		return 1
	}
	cfg := e.fx.cfg
	for c.stragAt <= t {
		gap := faultDur(c.stragSt, cfg.StragglerEvery)
		length := faultDur(c.stragSt, cfg.StragglerFor)
		c.strag = append(c.strag, faultWindow{start: c.stragAt + gap, end: c.stragAt + gap + length})
		c.stragAt += gap + length
	}
	i := sort.Search(len(c.strag), func(i int) bool { return c.strag[i].start > t })
	if i > 0 && t < c.strag[i-1].end {
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
