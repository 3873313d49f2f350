package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/multiagent"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/trace"
	"embench/internal/world"
)

// Fig9 is the fleet-contention experiment: what happens when whole
// episodes — not just the agents within one — share a single serving
// deployment, the paper's millions-of-users regime scaled down to a
// deterministic simulation. Three panels:
//
//   - fleet closed loop: N concurrent CoELA episodes attached to one
//     shared endpoint (runner.RunFleet), sweeping fleet size × replicas ×
//     routing policy. Queue wait, cache hits and task latency show how
//     routing and replica count absorb cross-episode contention.
//   - aggregation: join-window batching versus step-phase query
//     aggregation (Options.Aggregate, Rec. 1 end to end) across team
//     sizes, reporting the mean plan-call latency each policy delivers.
//   - open loop: a merged multi-episode trace replayed under each routing
//     policy, isolating pure routing behaviour (cache hit rate, queue
//     wait, throughput) from task dynamics.

// Fig9FleetRow is one closed-loop (fleet size, replicas, routing) sample.
type Fig9FleetRow struct {
	Episodes      int // concurrently running episodes on the endpoint
	Agents        int // team size per episode
	Replicas      int
	Routing       serve.RoutingPolicy
	SuccessRate   float64
	TaskLatency   time.Duration // mean episode duration
	MeanQueueWait time.Duration // per LLM call, endpoint-level
	CacheHitRate  float64       // endpoint-level
}

// Fig9AggRow compares serving policies for one team size: join-window
// continuous batching versus explicit step-phase aggregation.
type Fig9AggRow struct {
	Agents        int
	Aggregated    bool
	PlanCalls     int
	MeanPlanCall  time.Duration // mean latency of a planning LLM call
	TaskLatency   time.Duration
	MeanQueueWait time.Duration
	SuccessRate   float64
}

// Fig9RoutingRow is one open-loop (routing, replicas) sample over the
// merged fleet trace.
type Fig9RoutingRow struct {
	Replicas      int
	Routing       serve.RoutingPolicy
	MeanQueueWait time.Duration
	CacheHitRate  float64
	Throughput    float64
}

// Fig9Report bundles the three panels.
type Fig9Report struct {
	Fleet   []Fig9FleetRow
	Agg     []Fig9AggRow
	Routing []Fig9RoutingRow
}

// fig9System is the workload behind every panel: CoELA issues three LLM
// calls per agent per step, the heaviest endpoint pressure in the suite.
const fig9System = "CoELA"

// fig9TeamSize is the per-episode team size of the fleet panel.
const fig9TeamSize = 4

// Fig9Episodes is the fleet-size axis.
var Fig9Episodes = []int{1, 2, 4}

// Fig9AggAgents is the team-size axis of the aggregation panel.
var Fig9AggAgents = []int{2, 4, 8}

// fig9Routings is the routing-policy axis.
var fig9Routings = []serve.RoutingPolicy{
	serve.RouteLeastLoaded, serve.RouteCacheAffinity, serve.RouteShortestCompletion,
}

// fig9Replicas is the replica axis of the fleet panel.
var fig9Replicas = []int{1, 2, 4}

// Fig9 sweeps all three panels.
func Fig9(cfg Config) Fig9Report {
	var rep Fig9Report
	w := mustGet(fig9System)

	// Fleet closed loop: each (episodes, replicas, routing) cell is one
	// fleet group; groups fan out over the configured worker pool.
	var groups []runner.FleetGroup
	for _, eps := range Fig9Episodes {
		for _, replicas := range fig9Replicas {
			for _, routing := range fig9Routings {
				sc := serve.Config{
					Replicas: replicas, Routing: routing,
					MaxBatch: 4, MaxWait: 1500 * time.Millisecond,
					CacheEntries: 512,
				}
				groups = append(groups, runner.FleetGroup{
					Specs: runner.Specs(w, world.Medium, fig9TeamSize, nil,
						multiagent.Options{Parallel: true}, eps, cfg.Seed),
					Serve: sc,
				})
				rep.Fleet = append(rep.Fleet, Fig9FleetRow{
					Episodes: eps, Agents: fig9TeamSize,
					Replicas: replicas, Routing: routing,
				})
			}
		}
	}
	results, err := runner.RunFleets(context.Background(), groups, cfg.Parallelism)
	if err != nil {
		panic("bench: fig9 fleet: " + err.Error())
	}
	for i, r := range results {
		s := metrics.Summarize(r.Episodes)
		rep.Fleet[i].SuccessRate = s.SuccessRate
		rep.Fleet[i].TaskLatency = s.MeanDuration
		rep.Fleet[i].MeanQueueWait = r.Serving.MeanQueueWait()
		rep.Fleet[i].CacheHitRate = r.Serving.CacheHitRate()
	}

	// Aggregation panel: per-episode shared endpoint (1 replica, join
	// window vs explicit phase batches), swept over team size.
	set := cfg.newBatchSet()
	var ids []int
	for _, n := range Fig9AggAgents {
		for _, agg := range []bool{false, true} {
			sc := serve.Config{
				Replicas: 1, MaxBatch: 4,
				MaxWait: 1500 * time.Millisecond, CacheEntries: 512,
			}
			ids = append(ids, set.add(w, world.Medium, n, nil,
				multiagent.Options{Parallel: true, Serve: &sc, Aggregate: agg}))
			rep.Agg = append(rep.Agg, Fig9AggRow{Agents: n, Aggregated: agg})
		}
	}
	set.run()
	for i := range rep.Agg {
		eps, traces := set.results(ids[i])
		s := metrics.Summarize(eps)
		rep.Agg[i].SuccessRate = s.SuccessRate
		rep.Agg[i].TaskLatency = s.MeanDuration
		rep.Agg[i].MeanQueueWait = s.Serving.MeanQueueWait()
		rep.Agg[i].PlanCalls, rep.Agg[i].MeanPlanCall = meanPlanCall(traces)
	}

	// Open loop: the fleet's traffic shape as a recorded trace — one
	// request stream per fleet agent, each with a stable stream-specific
	// persona prefix — replayed under each routing policy. The load is
	// light enough that arrivals usually find several idle replicas, which
	// is exactly where placement policy (not queueing) decides who wins:
	// least-loaded keeps picking the longest-idle replica, scattering each
	// stream's warm prefix, while the cache-aware policies pin streams to
	// the replica that served them before. MaxBatch is 1 so the comparison
	// isolates routing from batch composition.
	reqs := fig9Trace(1, 4, cfg.Seed)
	for _, replicas := range []int{2, 4} {
		for _, routing := range fig9Routings {
			sc := serve.Config{
				Profile: llm.GPT4, Replicas: replicas, Routing: routing,
				MaxBatch: 1, CacheEntries: 128,
			}
			res := serve.Replay(sc, reqs)
			rep.Routing = append(rep.Routing, Fig9RoutingRow{
				Replicas: replicas, Routing: routing,
				MeanQueueWait: res.Stats.MeanQueueWait(),
				CacheHitRate:  res.Stats.CacheHitRate(),
				Throughput:    res.Throughput(),
			})
		}
	}
	return rep
}

// meanPlanCall reports the count and mean latency of planning-module LLM
// calls ("plan", and "plan(phase)" for step-phase batches) across traces.
func meanPlanCall(traces []*trace.Trace) (int, time.Duration) {
	var n int
	var total time.Duration
	for _, tr := range traces {
		for _, ev := range tr.Events {
			if ev.LLMCall && strings.HasPrefix(ev.Kind, "plan") {
				n++
				total += ev.Latency
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n, time.Duration(float64(total) / float64(n))
}

// fig9Trace builds the open-loop fleet trace: episodes × agents request
// streams, each carrying — after the fleet-wide system/task preamble — a
// large FIXED-SIZE stream persona (conversation so far, agent briefing)
// and a small growing history tail. Under the cache's (name, size)-chain
// identity only stable sections re-hit, so the persona is the prize: a
// replica that served the stream before covers preamble+persona, any
// other replica only the preamble. Arrival jitter (seeded, so the trace
// is a pure function of its arguments) breaks the periodic lock-step that
// would otherwise let even cache-blind routing stay accidentally sticky.
func fig9Trace(episodes, agents int, seed uint64) []serve.Request {
	const (
		steps         = 8
		stepPeriod    = 75 * time.Second
		stagger       = 3 * time.Second
		personaTokens = 1200
		outTokens     = 140
	)
	jitter := rng.New(seed).NewStream("fig9/replay")
	var reqs []serve.Request
	for s := 0; s < steps; s++ {
		for e := 0; e < episodes; e++ {
			for a := 0; a < agents; a++ {
				stream := e*agents + a
				arrive := time.Duration(s)*stepPeriod +
					time.Duration(stream)*stagger +
					time.Duration(jitter.Range(0, 9000))*time.Millisecond
				p := prompt.New(
					prompt.Section{Name: "system", Tokens: 220},
					prompt.Section{Name: "task", Tokens: 90},
					prompt.Section{Name: fmt.Sprintf("persona-e%d-a%d", e, a), Tokens: personaTokens},
					prompt.Section{Name: "hist", Tokens: 60 + 40*s, Droppable: true},
				)
				reqs = append(reqs, serve.Request{
					Agent:   fmt.Sprintf("e%d/a%d", e, a),
					Arrival: arrive, Prompt: p, OutTokens: outTokens,
				})
			}
		}
	}
	return reqs
}

// RenderFig9 formats all three panels.
func RenderFig9(rep Fig9Report) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — fleet serving: episodes sharing one deployment (CoELA, medium, 4 agents/episode)\n")
	fmt.Fprintf(&b, "%8s %8s %-20s %9s %10s %9s %6s\n",
		"episodes", "replicas", "routing", "success", "latency", "q-wait", "cache")
	for _, r := range rep.Fleet {
		fmt.Fprintf(&b, "%8d %8d %-20s %8.0f%% %9.1fm %8.1fs %5.0f%%\n",
			r.Episodes, r.Replicas, r.Routing,
			100*r.SuccessRate, r.TaskLatency.Minutes(), r.MeanQueueWait.Seconds(),
			100*r.CacheHitRate)
	}
	b.WriteString("\nFig. 9b — step-phase aggregation vs join-window batching (1 replica)\n")
	fmt.Fprintf(&b, "%6s %-12s %10s %12s %10s %9s\n",
		"agents", "mode", "plan-calls", "plan-latency", "task-lat", "q-wait")
	for _, r := range rep.Agg {
		mode := "join-window"
		if r.Aggregated {
			mode = "aggregated"
		}
		fmt.Fprintf(&b, "%6d %-12s %10d %11.1fs %9.1fm %8.1fs\n",
			r.Agents, mode, r.PlanCalls, r.MeanPlanCall.Seconds(),
			r.TaskLatency.Minutes(), r.MeanQueueWait.Seconds())
	}
	b.WriteString("\nFig. 9c — open-loop routing-policy replay (4 persona streams, light load)\n")
	fmt.Fprintf(&b, "%8s %-20s %9s %6s %8s\n",
		"replicas", "routing", "q-wait", "cache", "req/s")
	for _, r := range rep.Routing {
		fmt.Fprintf(&b, "%8d %-20s %8.1fs %5.0f%% %8.3f\n",
			r.Replicas, r.Routing, r.MeanQueueWait.Seconds(),
			100*r.CacheHitRate, r.Throughput)
	}
	return b.String()
}
