package serve

import (
	"math"
	"time"

	"embench/internal/serve/obs"
)

// Autoscale is a clock-driven replica autoscaling policy for an Endpoint
// (and, through it, Fleet/ShardedFleet). The zero value disables
// autoscaling entirely: every replica stays active and the endpoint's
// behaviour is byte-identical to the fixed-replica model — the policy is
// strictly additive on the default path.
//
// When enabled, the endpoint evaluates utilization on a fixed virtual-time
// clock (every Interval): the fraction of active-replica time spent inside
// batches over the last window. Above UpUtil it activates parked replicas
// proportionally (each paying a ColdStart warm-up before taking traffic,
// with a cold prefix cache); below DownUtil it retires one idle replica,
// flushing its prefix cache — the flushed warm tokens are priced as
// capacity evictions (prefixCache.flush), so scale-down's KV-state loss
// shows up in EvictedTokens exactly like LRU pressure does.
//
// The evaluation clock is virtual: part of the event loop in open-loop
// replay, advanced by the arrival watermark in closed-loop serving.
type Autoscale struct {
	// Interval is the evaluation clock period; <= 0 disables autoscaling.
	Interval time.Duration
	// ColdStart delays a newly activated replica before it may serve
	// (model load / KV allocator warm-up). Its cache starts cold.
	ColdStart time.Duration
	// UpUtil / DownUtil are the window-utilization thresholds: scale up
	// above UpUtil (default 0.7), retire one idle replica below DownUtil
	// (default 0.25).
	UpUtil   float64
	DownUtil float64
	// Min / Max bound the active-replica count. Min defaults to 1; Max
	// defaults to (and is clamped by) Config.Replicas — the endpoint's
	// replica slice is the pool scaling draws from.
	Min, Max int
}

// enabled reports whether the policy does anything.
func (a Autoscale) enabled() bool { return a.Interval > 0 }

// withDefaults fills zero fields and clamps the bounds to the replica pool.
func (a Autoscale) withDefaults(replicas int) Autoscale {
	if !a.enabled() {
		return Autoscale{}
	}
	if a.UpUtil <= 0 {
		a.UpUtil = 0.7
	}
	if a.DownUtil <= 0 {
		a.DownUtil = 0.25
	}
	if a.Min < 1 {
		a.Min = 1
	}
	if a.Max < 1 || a.Max > replicas {
		a.Max = replicas
	}
	if a.Min > a.Max {
		a.Min = a.Max
	}
	return a
}

// ParseAutoscale parses an autoscale spec in the shared spec grammar
// (spec.go, docs/EXPERIMENTS.md). "on" is interval=30s,cold=15s; the
// fields are interval=DUR, cold=DUR, up=F, down=F (utilizations in
// (0,1]), min=N and max=N, unset fields taking their defaults. An explicit
// spec must set interval. The policy is the zero value on error.
func ParseAutoscale(s string) (Autoscale, error) {
	var a Autoscale
	err := parseSpec(&a, "autoscale", s, &Autoscale{Interval: 30 * time.Second, ColdStart: 15 * time.Second},
		Autoscale.enabled, "interval=DUR",
		periodField("interval", &a.Interval),
		durField("cold", &a.ColdStart, 0),
		floatField("up", &a.UpUtil, fracRule),
		floatField("down", &a.DownUtil, fracRule),
		intField("min", &a.Min, 1),
		intField("max", &a.Max, 1))
	return a, err
}

// maybeAutoscale advances the evaluation clock through every tick at or
// before virtual time t. In closed-loop serving t is the arrival
// watermark (arrivals may regress between submissions; the clock only
// moves forward), in open-loop replay it is the event loop's now. A long
// quiet stretch replays every missed tick in order, so multi-step
// scale-down across an idle gap happens at the exact times it would have
// with finer-grained events.
func (e *Endpoint) maybeAutoscale(t time.Duration) {
	if !e.cfg.Autoscale.enabled() {
		return
	}
	for e.asNext <= t {
		e.evalAutoscale(e.asNext)
		e.asNext += e.cfg.Autoscale.Interval
	}
}

// evalAutoscale is one clock tick: close the replica-time integral over
// the elapsed window, compute window utilization, and scale.
func (e *Endpoint) evalAutoscale(now time.Duration) {
	a := e.cfg.Autoscale
	e.stats.ReplicaTime = addSpan(e.stats.ReplicaTime, replicaSpan(e.active, now-e.asLast))
	e.asLast = now
	// Window utilization: busy replica-time accrued since the last tick
	// over active capacity. Batches accrue their full span at launch, so a
	// long batch can push a window past 1 — a deliberate bias toward
	// scaling up early under load spikes.
	util := float64(e.busyAcc-e.lastBusy) / float64(time.Duration(e.active)*a.Interval)
	e.lastBusy = e.busyAcc
	if e.sink != nil {
		e.sink.Event(obs.Event{
			Kind: obs.KindScaleTick, T: now, Shard: e.shard,
			Active: e.active, Util: util,
		})
	}

	switch {
	case util > a.UpUtil && e.active < a.Max:
		// Proportional scale-up: enough replicas that the observed load
		// would have run at UpUtil, at least one, at most the pool.
		want := int(math.Ceil(float64(e.active) * util / a.UpUtil))
		if want <= e.active {
			want = e.active + 1
		}
		if want > a.Max {
			want = a.Max
		}
		for i := e.active; i < want; i++ {
			// A reactivated replica was retired idle (freeAt <= its
			// retirement tick <= now), so the warm-up window starts now.
			e.replicas[i].freeAt = now + a.ColdStart
			if e.fx != nil {
				// Crash windows that elapsed while the replica was parked
				// never interrupted service: drop them uncounted (its cache
				// is already cold). Windows overlapping the activation stay
				// pending and apply as idle crashes.
				e.dropFaultsBefore(i, now)
			}
		}
		e.active = want
		e.stats.ScaleUps++
		if e.sink != nil {
			e.sink.Event(obs.Event{
				Kind: obs.KindScaleUp, T: now, Shard: e.shard, Active: e.active,
			})
		}
	case util < a.DownUtil && e.active > a.Min:
		// Retire one replica per tick, and only an idle one: in-flight
		// batches always run to completion, which is what keeps scale-down
		// deadlock-free — no request is ever stranded on a parked replica.
		r := &e.replicas[e.active-1]
		if r.freeAt <= now {
			e.sealFrontier(r)
			var live int
			if e.sink != nil {
				live, _, _ = r.cache.stats()
			}
			r.cache.flush()
			e.active--
			e.stats.ScaleDowns++
			if e.sink != nil {
				e.sink.Event(obs.Event{
					Kind: obs.KindCacheFlush, T: now, Shard: e.shard,
					Replica: e.active, Tokens: live,
				})
				e.sink.Event(obs.Event{
					Kind: obs.KindScaleDown, T: now, Shard: e.shard, Active: e.active,
				})
			}
		}
	}
}

// finishAutoscale closes the replica-time integral at the end of an
// open-loop run: evaluation ticks are replayed through the makespan and
// the trailing partial window is added. No-op when disabled, so
// fixed-replica replays report ReplicaTime == 0 (their cost is simply
// Replicas × makespan).
func (e *Endpoint) finishAutoscale(makespan time.Duration) {
	if !e.cfg.Autoscale.enabled() {
		return
	}
	e.maybeAutoscale(makespan)
	if makespan > e.asLast {
		e.stats.ReplicaTime = addSpan(e.stats.ReplicaTime, replicaSpan(e.active, makespan-e.asLast))
		e.asLast = makespan
	}
}
