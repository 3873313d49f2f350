// Package bench regenerates every table and figure of the paper's
// evaluation: per-module latency breakdowns (Fig. 2), module-sensitivity
// ablations (Fig. 3), local-vs-API model comparison (Fig. 4), memory
// capacity sweeps (Fig. 5), prompt-token growth (Fig. 6), multi-agent
// scalability (Fig. 7), and the optimization-recommendation ablations of
// Secs. IV–VI. Absolute numbers come from the calibrated simulation
// substrate; the paper's qualitative shapes are asserted in tests and the
// measured-vs-paper comparison lives in EXPERIMENTS.md.
//
// All episode batches flow through internal/runner, so a run with
// Config.Parallelism > 1 fans episodes out over a worker pool while
// reproducing the sequential results bit for bit (seed derivation and
// result ordering are the runner's responsibility).
package bench

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"embench/internal/metrics"
	"embench/internal/multiagent"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/systems"
	"embench/internal/trace"
	"embench/internal/world"
)

// Config sizes an experiment run.
type Config struct {
	Episodes int    // episodes per configuration (default 5)
	Seed     uint64 // root seed
	// Parallelism is the episode worker-pool size; <= 1 runs batches
	// sequentially. Results are identical at any value.
	Parallelism int
	// FleetSizes overrides fig10's fleet-size axis (nil = the default
	// ladder, Fig10FleetSizes). CI uses a reduced axis; the recorded
	// trajectory runs the full one.
	FleetSizes []int
	// FleetShards overrides fig10's shard axis (nil = Fig10Shards).
	FleetShards []int
	// Arrivals overrides fig12's arrival-process axis (nil = all three:
	// poisson, bursty, diurnal).
	Arrivals []serve.ArrivalKind
	// Tenants overrides fig12's tenant-count axis (nil = Fig12Tenants);
	// fig14 runs its first value (nil = 24).
	Tenants []int
	// SLO overrides fig12's and fig14's latency target (0 = Fig12SLO).
	SLO time.Duration
	// Autoscale overrides fig12's and fig14's autoscaled-deployment
	// policy (zero = fig12Autoscale).
	Autoscale serve.Autoscale
}

func (c Config) episodes() int {
	if c.Episodes <= 0 {
		return 5
	}
	return c.Episodes
}

// The accessors below read one override each, its default filled in; the
// experiments and their perf-record axes both read them. fig12 and fig14
// default the tenant axis apiece.
func (c Config) fleetSizes() []int             { return orDefault(c.FleetSizes, Fig10FleetSizes) }
func (c Config) fleetShards() []int            { return orDefault(c.FleetShards, Fig10Shards) }
func (c Config) arrivals() []serve.ArrivalKind { return orDefault(c.Arrivals, serve.ArrivalKinds()) }
func (c Config) tenants(def []int) []int       { return orDefault(c.Tenants, def) }
func (c Config) slo() time.Duration            { return cmp.Or(max(c.SLO, 0), Fig12SLO) }
func (c Config) autoscale() serve.Autoscale    { return cmp.Or(c.Autoscale, fig12Autoscale) }

// orDefault is v, or def when v is empty.
func orDefault[T any](v, def []T) []T {
	if len(v) == 0 {
		return def
	}
	return v
}

// mutation rewrites a workload's agent configuration for an ablation.
type mutation = runner.Mutation

// batch runs the episodes of one configuration through the episode runner
// and returns per-episode results with their traces, in episode order.
func (c Config) batch(w systems.Workload, diff world.Difficulty, agents int,
	mut mutation, opt multiagent.Options) ([]metrics.Episode, []*trace.Trace) {

	eps, traces, err := runner.Batch(context.Background(), w, diff, agents,
		mut, opt, c.episodes(), c.Seed, c.Parallelism)
	if err != nil {
		// Background context never cancels and episodes cannot fail.
		panic("bench: runner batch: " + err.Error())
	}
	return eps, traces
}

// batchSet accumulates the episode batches of many configurations and runs
// them as one fan-out, so an experiment parallelizes across configurations
// rather than only within each one's few episodes. Usage is two-phase:
// add() every configuration (recording the returned batch id), run() once,
// then read each batch back with results().
type batchSet struct {
	cfg    Config
	specs  []runner.EpisodeSpec
	starts []int
	eps    []metrics.Episode
	traces []*trace.Trace
}

func (c Config) newBatchSet() *batchSet { return &batchSet{cfg: c} }

// add appends one configuration's batch (cfg.episodes() episodes rooted at
// cfg.Seed, matching the sequential scheme) and returns its batch id.
func (s *batchSet) add(w systems.Workload, diff world.Difficulty, agents int,
	mut mutation, opt multiagent.Options) int {
	return s.addN(w, diff, agents, mut, opt, s.cfg.episodes())
}

// addN is add with an explicit episode count (Fig. 6 runs single episodes).
func (s *batchSet) addN(w systems.Workload, diff world.Difficulty, agents int,
	mut mutation, opt multiagent.Options, episodes int) int {

	s.starts = append(s.starts, len(s.specs))
	s.specs = append(s.specs, runner.Specs(w, diff, agents, mut, opt, episodes, s.cfg.Seed)...)
	return len(s.starts) - 1
}

// run executes every added batch over the configured worker pool.
func (s *batchSet) run() {
	eps, traces, err := runner.Run(context.Background(), s.specs, s.cfg.Parallelism)
	if err != nil {
		panic("bench: runner set: " + err.Error())
	}
	s.eps, s.traces = eps, traces
}

// results returns one batch's episodes and traces, in episode order.
func (s *batchSet) results(id int) ([]metrics.Episode, []*trace.Trace) {
	start, end := s.starts[id], len(s.specs)
	if id+1 < len(s.starts) {
		end = s.starts[id+1]
	}
	return s.eps[start:end], s.traces[start:end]
}

// kindShare reports the latency fraction spent in events of the given
// kind prefix across traces (e.g. CoELA's "message"/"plan"/"act-select"
// split, paper Sec. IV-A).
func kindShare(traces []*trace.Trace, kind string) float64 {
	var total, match float64
	for _, tr := range traces {
		for _, ev := range tr.Events {
			total += ev.Latency.Seconds()
			if ev.Kind == kind || (len(ev.Kind) > len(kind) && ev.Kind[:len(kind)] == kind) {
				match += ev.Latency.Seconds()
			}
		}
	}
	if total == 0 {
		return 0
	}
	return match / total
}

// row returns the report row whose cell is k, panicking on a malformed
// report — metrics and tests index cells by name.
func row[K comparable, R interface{ cell() K }](rows []R, k K) R {
	for _, r := range rows {
		if r.cell() == k {
			return r
		}
	}
	panic(fmt.Sprintf("bench: missing cell %+v", k))
}

// mustGet resolves a workload or panics — experiment tables are static.
func mustGet(name string) systems.Workload {
	w, ok := systems.Get(name)
	if !ok {
		panic("bench: unknown workload " + name)
	}
	return w
}
