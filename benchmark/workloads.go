package main

import (
	"context"
	"fmt"
	"time"

	"embench/internal/llm"
	"embench/internal/multiagent"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/serve/obs"
	"embench/internal/systems"
	"embench/internal/world"
)

// workload is one input set of the benchmark. A run generates instances
// inputs from its seed; setup builds one of them and returns the work of
// one round, and every round of that instance repeats exactly that work,
// so its outputs must be identical. p carries the traced run's probes and
// is nil on untraced runs.
type workload struct {
	name string
	why  string
	// instances is how many inputs a run generates. One input's host cost,
	// size and virtual outcome vary with its seed; a run measures all of
	// them, so its metrics average that variation out. The bursty replays
	// need more: their fleet-wide bursts make one input's request count
	// vary by 27% (coefficient of variation), the episodes' by 3%, and one
	// replay input's host time per request by about 20%.
	instances int
	setup     func(seed uint64, p *probes) (round, error)
}

// round runs one round of a workload's fixed work.
type round func() (result, error)

// workloads is the benchmark, in the order the all-workloads mode runs it.
var workloads = []workload{
	{
		name:      "episodes-scale",
		why:       "closed-loop agent hot path: belief building, memory retrieval, comms dedup and client draws at teams 4-12, on dedicated serving",
		instances: 8,
		setup:     episodesScale,
	},
	{
		name:      "fleet-shared",
		why:       "64 episodes on one shared endpoint: the cross-episode merge, activation-gate handoffs and closed-loop Endpoint.Serve",
		instances: 8,
		setup:     fleetShared,
	},
	{
		name:      "replay-burst",
		why:       "open-loop bursty replay across the capacity knee: the seed replay loop, routing, cache and autoscaler, with no agents and no sink",
		instances: 24,
		setup:     replayBurst,
	},
	{
		name:      "replay-faults",
		why:       "crashes with retry, hedge and shed plus a flight recorder: the resilient event loop and obs writes",
		instances: 32,
		setup:     replayFaults,
	},
	{
		name:      "replay-disagg",
		why:       "prefill/decode pools with a priced KV handoff: the disaggregated replay loop",
		instances: 32,
		setup:     replayDisagg,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// slo is the end-to-end latency target of every workload, fig12's.
const slo = 60 * time.Second

// episodesScale runs one hard episode of a centralized and two
// decentralized systems at the fig7 team sizes, sequentially and on
// dedicated (direct) serving, so the serving layer does almost nothing.
func episodesScale(seed uint64, p *probes) (round, error) {
	var specs []runner.EpisodeSpec
	for _, name := range []string{"MindAgent", "CoELA", "COMBO"} {
		w, err := suiteWorkload(name, p)
		if err != nil {
			return nil, err
		}
		for _, n := range []int{4, 8, 12} {
			specs = append(specs, runner.EpisodeSpec{
				Workload: w, Difficulty: world.Hard, Agents: n,
				Seed: runner.EpisodeSeed(seed, len(specs)),
			})
		}
	}
	return func() (result, error) {
		eps, traces, err := runner.Run(context.Background(), specs, 1)
		return episodes{eps: eps, traces: traces}, err
	}, nil
}

// fleetShared runs 64 CoELA episodes against one shared endpoint. At 64
// episodes runner.RunFleet gates execution through its activation pool.
func fleetShared(seed uint64, p *probes) (round, error) {
	w, err := suiteWorkload("CoELA", p)
	if err != nil {
		return nil, err
	}
	g := runner.FleetGroup{
		Specs: runner.Specs(w, world.Medium, 2, nil, multiagent.Options{Parallel: true}, 64, seed),
		Serve: serve.Config{
			Replicas: 8, Routing: serve.RouteCacheAffinity,
			MaxBatch: 8, MaxWait: 2 * time.Second, CacheTokens: 16384,
		},
	}
	return func() (result, error) {
		res, err := runner.RunFleet(context.Background(), g)
		return fleet{episodes: episodes{eps: res.Episodes, traces: res.Traces}, serving: res.Serving}, err
	}, nil
}

// suiteWorkload looks up a Table II system and, on traced runs, wraps its
// domains in timing probes.
func suiteWorkload(name string, p *probes) (systems.Workload, error) {
	w, ok := systems.Get(name)
	if !ok {
		return w, fmt.Errorf("unknown suite workload %q", name)
	}
	if p != nil {
		w = p.env.wrapWorkload(w)
	}
	return w, nil
}

// Open-loop traffic: bursty tenants at fig12's per-tenant rate over two
// hours, so every rung sees about a dozen bursts.
const (
	trafficHorizon = 2 * time.Hour
	trafficRate    = 1.0 / 60
)

func bursty(seed uint64, tenants int) []serve.Request {
	return serve.GenerateTraffic(serve.Traffic{
		Kind: serve.ArriveBursty, Tenants: tenants,
		Horizon: trafficHorizon, Rate: trafficRate, Seed: seed,
	})
}

// autoscaled is fig12's autoscaled deployment: up to 8 GPT-4 replicas,
// scaled between 2 and 8 on a 15 s evaluation clock.
func autoscaled() serve.Config {
	return serve.Config{
		Profile: llm.GPT4, Replicas: 8,
		MaxBatch: 4, MaxWait: 500 * time.Millisecond,
		CacheEntries: 512, CacheTokens: 8192,
		Identity: serve.IdentityContent,
		Autoscale: serve.Autoscale{
			Interval: 15 * time.Second, ColdStart: 10 * time.Second,
			UpUtil: 0.5, DownUtil: 0.25, Min: 2, Max: 8,
		},
	}
}

// burstRungs is replay-burst's tenant ladder. It straddles the autoscaled
// deployment's capacity knee, and the top rung is overloaded (p99 two to
// four times the SLO, its backlog draining for up to minutes after the
// last arrival), so queue ordering cost shows in every round. The top
// rung stops at 72: at 96 the backlog's cost grows so fast with a seed's
// burst lengths that the rung took two thirds of the host time, and the
// inputs alone spread a 16-instance run's requests_per_s by 12% between
// quartiles, against 7% at 72.
var burstRungs = []int{16, 32, 48, 64, 72}

// burstReported is the rung whose latency, attainment and cost
// replay-burst reports: the one nearest the knee.
const burstReported = 48

func replayBurst(seed uint64, _ *probes) (round, error) {
	cfg := autoscaled()
	traffic := make([][]serve.Request, len(burstRungs))
	reported := 0
	for i, n := range burstRungs {
		traffic[i] = bursty(seed, n)
		if n == burstReported {
			reported = i
		}
	}
	return func() (result, error) {
		r := replay{reported: reported}
		for i, n := range burstRungs {
			r.rungs = append(r.rungs, rung{
				tenants: n, reqs: traffic[i], res: serve.Replay(cfg, traffic[i]),
			})
		}
		return r, nil
	}, nil
}

// replayTenants is the tenant count of the two single-rung replays, below
// the autoscaled deployment's knee.
const replayTenants = 32

// faulted is fig14's retry+hedge+shed cell at a 3 minute MTBF on the
// autoscaled deployment; requests carry a 40 s deadline.
func faulted(seed uint64) serve.Config {
	cfg := autoscaled()
	cfg.Faults = serve.Faults{
		MTBF: 3 * time.Minute, MTTR: 60 * time.Second,
		StragglerEvery: 90 * time.Second, StragglerFor: 20 * time.Second,
		StragglerFactor: 6, Seed: seed,
	}
	cfg.Retry = serve.RetryPolicy{Max: 2, Base: 500 * time.Millisecond, Factor: 2, Jitter: 0.2}
	cfg.Hedge = serve.HedgePolicy{Delay: 10 * time.Second}
	cfg.Shed = serve.ShedPolicy{Wait: 35 * time.Second}
	return cfg
}

func withDeadline(reqs []serve.Request) []serve.Request {
	for i := range reqs {
		reqs[i].Deadline = 40 * time.Second
	}
	return reqs
}

// replayFaults replays the faulted deployment with a flight recorder
// attached.
func replayFaults(seed uint64, p *probes) (round, error) {
	cfg := faulted(seed)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reqs := withDeadline(bursty(seed, replayTenants))
	return func() (result, error) {
		rec := obs.NewRecorder()
		var sink obs.Sink = rec
		if p != nil {
			sink = p.sink.wrap(rec)
		}
		res := serve.ReplayObserved(cfg, reqs, sink)
		return replay{rungs: []rung{{tenants: replayTenants, reqs: reqs, res: res}}, rec: rec}, nil
	}, nil
}

// disaggregated splits six replicas into a prefill pool of 2 (batch 4) and
// a decode pool of 4 (batch 8), with fig13's KV handoff price.
func disaggregated() serve.Config {
	return serve.Config{
		Profile:      llm.GPT4,
		CacheEntries: 512, CacheTokens: 8192,
		Identity: serve.IdentityContent,
		Prefill:  serve.PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: 500 * time.Millisecond},
		Decode:   serve.PoolConfig{Replicas: 4, MaxBatch: 8, MaxWait: 500 * time.Millisecond},
		Handoff:  serve.Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000},
	}
}

func replayDisagg(seed uint64, _ *probes) (round, error) {
	cfg := disaggregated()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reqs := bursty(seed, replayTenants)
	return func() (result, error) {
		res := serve.Replay(cfg, reqs)
		return replay{rungs: []rung{{tenants: replayTenants, reqs: reqs, res: res}}, staticReplicas: 6}, nil
	}, nil
}
