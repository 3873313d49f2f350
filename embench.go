// Package embench is an embodied-agent systems workload suite and
// benchmarking harness — a from-scratch Go reproduction of "Generative AI
// in Embodied Systems: System-Level Analysis of Performance, Efficiency
// and Scalability" (ISPASS 2025).
//
// The suite implements the paper's fourteen workloads (Table II) over six
// task environments, the six agent building blocks (sensing, planning,
// communication, memory, reflection, execution), all four coordination
// paradigms, and one experiment runner per table and figure in the paper's
// evaluation. See docs/ARCHITECTURE.md for the module map and determinism
// model and docs/EXPERIMENTS.md for per-figure recipes and CLI flag
// semantics.
//
// Experiments are embarrassingly parallel at the episode level, and every
// figure/table regeneration routes its episode batches through a
// deterministic worker-pool runner (internal/runner). ExperimentConfig's
// Parallelism knob (the embench CLI's -procs flag) sizes the pool; seeds
// are derived per episode from the root seed, so any parallelism level —
// including the sequential default — produces bit-identical reports.
//
// Quick start:
//
//	out, err := embench.Run("CoELA", "medium", 2, 1)
//	fmt.Println(out.Episode.Success, out.Episode.SimDuration)
//
//	report, err := embench.Experiment("fig2", 5, 1)
//	fmt.Println(report)
//
//	// Same report, regenerated on all cores:
//	report, err = embench.ExperimentOpt("fig2", embench.ExperimentConfig{
//		Episodes: 5, Seed: 1, Parallelism: runtime.GOMAXPROCS(0),
//	})
package embench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"embench/internal/bench"
	"embench/internal/multiagent"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/systems"
	"embench/internal/world"
)

// Outcome is one episode's metrics and trace.
type Outcome = multiagent.Outcome

// Options tunes a run; see multiagent.Options.
type Options = multiagent.Options

// ServeConfig describes a shared serving endpoint (queueing, continuous
// batching, per-replica prefix caches, replicas, routing policy); set
// Options.Serve to route an episode's LLM traffic through one, or pass it
// to RunFleet to share one endpoint across episodes. See internal/serve.
type ServeConfig = serve.Config

// RoutingPolicy places new batches on replicas: least-loaded,
// cache-affinity or shortest-completion. See serve.RoutingPolicy.
type RoutingPolicy = serve.RoutingPolicy

// ParseRouting converts a routing-policy name ("" = least-loaded). On error
// the returned policy is "", not a usable fallback.
func ParseRouting(s string) (RoutingPolicy, error) { return serve.ParseRouting(s) }

// CacheIdentity selects how cached prompt prefixes are keyed: by shape
// ((section name, token count) chains, the default) or by content (chained
// section digests). See serve.CacheIdentity.
type CacheIdentity = serve.CacheIdentity

// ParseIdentity converts a cache-identity name ("" = shape). On error the
// returned identity is "", not a usable fallback.
func ParseIdentity(s string) (CacheIdentity, error) { return serve.ParseIdentity(s) }

// ArrivalKind selects a traffic arrival process (poisson, bursty, diurnal);
// the fig12 sweep axis. See serve.ArrivalKind.
type ArrivalKind = serve.ArrivalKind

// ParseArrival converts an arrival-process name ("" = poisson). On error
// the returned kind is "", not a usable fallback.
func ParseArrival(s string) (ArrivalKind, error) { return serve.ParseArrival(s) }

// AutoscalePolicy sizes a replica autoscaler; the zero value disables it.
// See serve.Autoscale.
type AutoscalePolicy = serve.Autoscale

// ParseAutoscale converts an autoscale spec (""/"off" = disabled, "on" =
// defaults, or "interval=30s,cold=15s,up=0.7,down=0.25,min=1,max=8"). On
// error the returned policy is the zero value, not a usable fallback.
func ParseAutoscale(s string) (AutoscalePolicy, error) { return serve.ParseAutoscale(s) }

// HandoffCost prices the prefill→decode KV-cache transfer of a
// disaggregated deployment; the zero value is free. See serve.Handoff.
type HandoffCost = serve.Handoff

// ParseHandoff converts a handoff spec (""/"off" = free, or
// "lat=40ms,rate=200000"). On error the returned cost is the zero value,
// not a usable fallback.
func ParseHandoff(s string) (HandoffCost, error) { return serve.ParseHandoff(s) }

// FaultConfig is a deterministic replica fault process (seeded
// crash-restart plus straggler episodes); the zero value disables it. See
// serve.Faults.
type FaultConfig = serve.Faults

// ParseFaults converts a faults spec (""/"off" = disabled, "on" =
// mtbf=5m,mttr=30s, or "mtbf=DUR,mttr=DUR,straggle=DUR,for=DUR,slow=F,
// seed=N"). On error the returned config is the zero value, not a usable
// fallback.
func ParseFaults(s string) (FaultConfig, error) { return serve.ParseFaults(s) }

// RetryPolicy re-issues deadline-expired replayed requests with seeded
// exponential backoff; the zero value disables it. See serve.RetryPolicy.
type RetryPolicy = serve.RetryPolicy

// ParseRetry converts a retry spec (""/"off" = disabled, "on" = the
// default max=2,jitter=0.2, or "max=N,base=DUR,factor=F,jitter=F"). On
// error the returned policy is the zero value, not a usable fallback.
func ParseRetry(s string) (RetryPolicy, error) { return serve.ParseRetry(s) }

// HedgePolicy duplicates a replayed request that has waited past its delay
// (first completion wins); the zero value disables it. See
// serve.HedgePolicy.
type HedgePolicy = serve.HedgePolicy

// ParseHedge converts a hedge spec (""/"off" = disabled, "on" = delay=2s,
// or "delay=DUR"). On error the returned policy is the zero value, not a
// usable fallback.
func ParseHedge(s string) (HedgePolicy, error) { return serve.ParseHedge(s) }

// ShedPolicy is priority-aware admission load shedding for replayed
// requests; the zero value disables it. See serve.ShedPolicy.
type ShedPolicy = serve.ShedPolicy

// ParseShed converts a shed spec (""/"off" = disabled, "on" = queue=32, or
// "queue=N,wait=DUR,prio=N"). On error the returned policy is the zero
// value, not a usable fallback.
func ParseShed(s string) (ShedPolicy, error) { return serve.ParseShed(s) }

// Workloads lists the benchmark suite's fourteen systems in the paper's
// order.
func Workloads() []string {
	return append([]string(nil), systems.SuiteNames...)
}

// ParseDifficulty converts "easy", "medium" or "hard".
func ParseDifficulty(s string) (world.Difficulty, error) {
	switch strings.ToLower(s) {
	case "easy":
		return world.Easy, nil
	case "medium", "":
		return world.Medium, nil
	case "hard":
		return world.Hard, nil
	}
	return world.Medium, fmt.Errorf("embench: unknown difficulty %q (easy|medium|hard)", s)
}

// Run executes one episode of a named workload. agents <= 0 uses the
// workload's default team size.
func Run(name, difficulty string, agents int, seed uint64) (Outcome, error) {
	return RunOpt(name, difficulty, agents, Options{Seed: seed})
}

// FleetResult is a fleet run's outcome: per-episode metrics and traces in
// episode order plus the shared endpoint's serving totals.
type FleetResult = runner.FleetResult

// RunFleet runs `episodes` concurrent episodes of one workload against a
// shared serving deployment (serve.Fleet): the episodes' LLM traffic
// contends for the same replicas, admission queue and prefix caches, with
// deterministic discrete-event merging of the episodes' virtual-time
// request streams. shards > 1 splits the fleet across that many
// independent endpoints (episode i on shard i % shards; see
// serve.ShardedFleet). Episode seeds derive from opt.Seed exactly as
// Experiment batches do, and the result is byte-identical across reruns;
// large fleets are activation-gated automatically (runner.FleetGroup).
func RunFleet(name, difficulty string, agents, episodes, shards int, opt Options, sc ServeConfig) (FleetResult, error) {
	w, ok := systems.Get(name)
	if !ok {
		return FleetResult{}, fmt.Errorf("embench: unknown workload %q (see Workloads())", name)
	}
	diff, err := ParseDifficulty(difficulty)
	if err != nil {
		return FleetResult{}, err
	}
	if episodes < 1 {
		episodes = 1
	}
	return runner.RunFleet(context.Background(), runner.FleetGroup{
		Specs:  runner.Specs(w, diff, agents, nil, opt, episodes, opt.Seed),
		Serve:  sc,
		Shards: shards,
		// A flight-recorder sink on the options records the shared
		// deployment itself (the episodes route through fleet clients, so
		// per-episode endpoints never exist here).
		Sink: opt.Sink,
	})
}

// RunOpt is Run with full runner options.
func RunOpt(name, difficulty string, agents int, opt Options) (Outcome, error) {
	w, ok := systems.Get(name)
	if !ok {
		return Outcome{}, fmt.Errorf("embench: unknown workload %q (see Workloads())", name)
	}
	diff, err := ParseDifficulty(difficulty)
	if err != nil {
		return Outcome{}, err
	}
	return w.Run(diff, agents, opt), nil
}

// Experiments lists the runnable experiment ids: one per paper table and
// figure, plus the optimization ablations and calibration report.
func Experiments() []string {
	var out []string
	for _, e := range bench.Experiments {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// ExperimentResult is one experiment run's rendered report, its
// machine-readable perf metrics and its effective sweep axis, under the
// experiment's canonical name. See bench.Result.
type ExperimentResult = bench.Result

// ExperimentConfig sizes an experiment run.
type ExperimentConfig struct {
	// Episodes per configuration; <= 0 uses the default (5).
	Episodes int
	// Seed roots all randomness; equal seeds give identical reports.
	Seed uint64
	// Parallelism sizes the episode worker pool; <= 1 runs sequentially.
	// Reports are bit-identical at every value.
	Parallelism int
	// FleetSizes overrides fig10's fleet-size axis (nil = default ladder
	// 16..2048); the CLI's -fleet-sizes.
	FleetSizes []int
	// FleetShards overrides fig10's shard axis (nil = {1, 4}); the CLI's
	// -serve-shards under -exp.
	FleetShards []int
	// Arrivals overrides fig12's arrival-process axis (nil = poisson,
	// bursty, diurnal); the CLI's -serve-arrivals. Each name must parse
	// via ParseArrival.
	Arrivals []string
	// Tenants overrides fig12's tenant-count axis (nil = {8, 24}); fig14
	// runs its first value (nil = 24). The CLI's -serve-tenants. Values
	// must be positive.
	Tenants []int
	// SLO overrides the end-to-end latency target of fig12 and fig14
	// (0 = 60s); the CLI's -serve-slo. Must not be negative.
	SLO time.Duration
	// Autoscale overrides the autoscaled-deployment policy of fig12 and
	// fig14; parsed via ParseAutoscale ("" keeps the fig12 default). The
	// CLI's -serve-autoscale.
	Autoscale string
}

// Experiment regenerates one table/figure and returns the rendered report.
// episodes <= 0 uses the default (5 per configuration).
func Experiment(name string, episodes int, seed uint64) (string, error) {
	return ExperimentOpt(name, ExperimentConfig{Episodes: episodes, Seed: seed})
}

// ExperimentOpt is Experiment with full run configuration, including the
// episode-runner parallelism.
func ExperimentOpt(name string, cfg ExperimentConfig) (string, error) {
	res, err := ExperimentFull(name, cfg)
	return res.Report, err
}

// ExperimentFull is ExperimentOpt returning the whole result: besides the
// report, the perf metrics of fig10–fig14 (nil for the rest) and the
// effective axis of fig10, fig12 and fig14, which the CLI writes into
// -bench-json records and the perf trajectory.
func ExperimentFull(name string, cfg ExperimentConfig) (ExperimentResult, error) {
	run, ok := bench.Lookup(name)
	if !ok {
		return ExperimentResult{}, fmt.Errorf("embench: unknown experiment %q (one of %s)",
			name, strings.Join(Experiments(), ", "))
	}
	var arrivals []serve.ArrivalKind
	for _, s := range cfg.Arrivals {
		kind, err := serve.ParseArrival(s)
		if err != nil {
			return ExperimentResult{}, err
		}
		arrivals = append(arrivals, kind)
	}
	for _, n := range cfg.Tenants {
		if n < 1 {
			return ExperimentResult{}, fmt.Errorf("embench: tenant count %d must be positive", n)
		}
	}
	if cfg.SLO < 0 {
		return ExperimentResult{}, fmt.Errorf("embench: negative SLO %v", cfg.SLO)
	}
	autoscale, err := serve.ParseAutoscale(cfg.Autoscale)
	if err != nil {
		return ExperimentResult{}, err
	}
	return run(bench.Config{
		Episodes:    cfg.Episodes,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		FleetSizes:  cfg.FleetSizes,
		FleetShards: cfg.FleetShards,
		Arrivals:    arrivals,
		Tenants:     cfg.Tenants,
		SLO:         cfg.SLO,
		Autoscale:   autoscale,
	}), nil
}
