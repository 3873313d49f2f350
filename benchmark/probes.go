package main

import (
	"sync/atomic"
	"time"

	"embench/internal/core"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/serve/obs"
	"embench/internal/systems"
	"embench/internal/world"
)

// clock is the benchmark's only wall-clock read: every host-time metric
// and probe timer goes through it.
func clock() time.Time {
	return time.Now() //detlint:allow wallclock host-time measurement of the benchmark harness; never feeds the simulation
}

// probes are the traced run's timers around calls into the program's
// public seams: each environment's core.Domain and the flight recorder's
// obs.Sink. Untraced runs pass a nil *probes and install nothing.
type probes struct {
	env  envProbe
	sink sinkProbe
}

// reset zeroes every probe, so the traced phase excludes set-up.
func (p *probes) reset() {
	for m := range p.env.calls {
		p.env.calls[m].Store(0)
		p.env.ns[m].Store(0)
	}
	p.env.records.Store(0)
	p.sink = sinkProbe{}
}

// The timed core.Domain methods; ProposeJoint counts as propose.
const (
	observe = iota
	buildBelief
	propose
	execute
	tick
	envMethods
)

var envMethodNames = [envMethods]string{"observe", "build_belief", "propose", "execute", "tick"}

// envProbe accumulates calls and host time per Domain method. Fleet
// episodes run on concurrent goroutines, hence the atomics.
type envProbe struct {
	calls, ns [envMethods]atomic.Int64
	// records counts the memory records BuildBelief folded.
	records atomic.Int64
}

func (p *envProbe) done(m int, start time.Time) {
	p.ns[m].Add(int64(clock().Sub(start)))
	p.calls[m].Add(1)
}

// fullDomain is the method set of the four environments that support every
// paradigm; craftworld and kitchenctl implement core.Domain alone.
type fullDomain interface {
	core.CentralDomain
	core.Claimer
	core.Corrector
}

// wrapWorkload returns w with every domain it builds wrapped in timers.
func (p *envProbe) wrapWorkload(w systems.Workload) systems.Workload {
	inner := w.NewDomain
	w.NewDomain = func(agents int, diff world.Difficulty, src *rng.Source) core.Domain {
		return p.wrap(inner(agents, diff, src))
	}
	return w
}

// wrap returns a timing Domain with exactly d's optional interfaces, so the
// agent runtime's type assertions take the same branches as on d itself.
func (p *envProbe) wrap(d core.Domain) core.Domain {
	if f, ok := d.(fullDomain); ok {
		return timedFull{timedDomain{f, p}, f}
	}
	_, central := d.(core.CentralDomain)
	_, claimer := d.(core.Claimer)
	_, corrector := d.(core.Corrector)
	if central || claimer || corrector {
		panic("benchmark: domain " + d.Name() + " implements only some optional interfaces; add a wrapper type for its set")
	}
	return timedDomain{d, p}
}

type timedDomain struct {
	core.Domain
	p *envProbe
}

func (d timedDomain) Observe(agent int) core.Observation {
	start := clock()
	defer d.p.done(observe, start)
	return d.Domain.Observe(agent)
}

func (d timedDomain) BuildBelief(agent int, recs []memory.Record) core.Belief {
	start := clock()
	defer d.p.done(buildBelief, start)
	d.p.records.Add(int64(len(recs)))
	return d.Domain.BuildBelief(agent, recs)
}

func (d timedDomain) Propose(agent int, b core.Belief) core.Proposal {
	start := clock()
	defer d.p.done(propose, start)
	return d.Domain.Propose(agent, b)
}

func (d timedDomain) Execute(agent int, g core.Subgoal) execution.Result {
	start := clock()
	defer d.p.done(execute, start)
	return d.Domain.Execute(agent, g)
}

func (d timedDomain) Tick() {
	start := clock()
	defer d.p.done(tick, start)
	d.Domain.Tick()
}

type timedFull struct {
	timedDomain
	f fullDomain
}

func (d timedFull) ProposeJoint(b core.Belief) core.Proposal {
	start := clock()
	defer d.p.done(propose, start)
	return d.f.ProposeJoint(b)
}

func (d timedFull) ClaimRecord(agent int, g core.Subgoal) (memory.Record, bool) {
	return d.f.ClaimRecord(agent, g)
}

func (d timedFull) CorrectionRecords(agent int, g core.Subgoal, res execution.Result) []memory.Record {
	return d.f.CorrectionRecords(agent, g, res)
}

// sinkProbe accumulates flight-recorder events and the host time the sink
// spent storing them. Replays emit from one goroutine.
type sinkProbe struct {
	events, ns int64
}

func (p *sinkProbe) wrap(s obs.Sink) obs.Sink { return timedSink{s, p} }

type timedSink struct {
	obs.Sink
	p *sinkProbe
}

func (s timedSink) Event(ev obs.Event) {
	start := clock()
	s.Sink.Event(ev)
	s.p.ns += int64(clock().Sub(start))
	s.p.events++
}
