package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/multiagent"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/world"
)

// Fig10 is the fleet-admission scale experiment: how far the shared-
// deployment simulation itself scales, now that admission is a heap merge
// with targeted wakeups, episode activation is arrival-driven, and fleets
// shard across independent endpoints. Unlike fig2–fig9, which report
// simulated quantities, fig10's headline numbers are WALL time — the cost
// of running the simulation — so its rows vary run to run; the serving
// statistics columns remain deterministic.
//
// Two panels (the heap-vs-linear merge comparison that was panel 10b is
// the BenchmarkFleetMerge{Heap,Linear} pair in internal/serve):
//
//   - 10a, merge scale: synthetic scripted episode streams (no world
//     simulation, so the merge hot path is all that scales) driven through
//     a ShardedFleet, swept fleet size × shards × routing. A fixed total
//     request budget per cell makes per-admission cost the variable.
//   - 10c, closed loop: real CoELA episodes via runner.RunFleet at fleet
//     sizes past the activation threshold, exercising the bounded
//     activation pool end to end (capped at 256 episodes — real episodes
//     cost real time; the merge panel carries the scale story beyond that).

// Fig10MergeRow is one (fleet size, shards, routing) synthetic-merge cell.
type Fig10MergeRow struct {
	Episodes      int
	Shards        int
	Routing       serve.RoutingPolicy
	Requests      int
	WallMS        float64 // wall time to drive all requests through the merge
	AdmitPerSec   float64 // requests admitted per wall second
	MeanQueueWait time.Duration
	CacheHitRate  float64
}

// Fig10ClosedRow is one real-episode (fleet size, shards) sample.
type Fig10ClosedRow struct {
	Episodes      int
	Shards        int
	WallMS        float64
	SuccessRate   float64
	MeanQueueWait time.Duration
	CacheHitRate  float64
}

// Fig10Report bundles the two panels.
type Fig10Report struct {
	Merge  []Fig10MergeRow
	Closed []Fig10ClosedRow
}

// Fig10FleetSizes is the default fleet-size axis (ISSUE/ROADMAP ladder).
var Fig10FleetSizes = []int{16, 64, 256, 1024, 2048}

// Fig10Shards is the default shard axis.
var Fig10Shards = []int{1, 4}

// fig10Routings: least-loaded is the merge-cost floor; cache-affinity adds
// the per-replica cache probes the memoized prompt keys were built for.
var fig10Routings = []serve.RoutingPolicy{serve.RouteLeastLoaded, serve.RouteCacheAffinity}

// fig10ClosedCap bounds the real-episode panel.
const fig10ClosedCap = 256

// fig10MergeBudget is the total requests per merge cell: a fixed budget
// keeps wall times comparable across fleet sizes (the same work, spread
// over more episodes).
const fig10MergeBudget = 16384

// fig10Steps spreads a request budget over n episodes, at least 4 calls
// each so every episode genuinely participates in the merge.
func fig10Steps(budget, n int) int {
	steps := budget / n
	if steps < 4 {
		steps = 4
	}
	return steps
}

// fig10Streams builds n synthetic episode request streams of `steps` calls
// each: a fleet-wide system/task preamble, a per-episode persona (the
// cache-affinity prize), and a growing history tail, with seeded arrival
// jitter so admission ties and reorderings occur. Pure function of its
// arguments.
func fig10Streams(n, steps int, seed uint64) [][]llm.Call {
	// The per-episode step period scales with fleet size so the offered
	// load stays near the 4-replica deployment's capacity at every N —
	// queueing is real but bounded, and wall time measures merge cost,
	// not a runaway backlog. History growth wraps so prompt sizes stay
	// comparable whether a budget is spread over 4 or 1024 steps.
	stepPeriod := time.Duration(n) * 12 * time.Second
	const stagger = 40 * time.Millisecond
	jitter := rng.New(seed).NewStream(fmt.Sprintf("fig10/streams/n%d", n))
	calls := make([][]llm.Call, n)
	for e := 0; e < n; e++ {
		calls[e] = make([]llm.Call, steps)
		persona := prompt.Section{Name: fmt.Sprintf("persona-e%d", e), Tokens: 600}
		for s := 0; s < steps; s++ {
			arrive := time.Duration(s)*stepPeriod +
				time.Duration(e)*stagger +
				time.Duration(jitter.Range(0, 5000))*time.Millisecond
			calls[e][s] = llm.Call{
				Agent:   fmt.Sprintf("e%d", e),
				Arrival: arrive,
				Prompt: prompt.New(
					prompt.Section{Name: "system", Tokens: 220},
					prompt.Section{Name: "task", Tokens: 90},
					persona,
					prompt.Section{Name: "hist", Tokens: 60 + 30*(s%32), Droppable: true},
				),
				OutTokens: 120,
			}
		}
	}
	return calls
}

// fig10Drive runs every stream's calls through its fleet client from its
// own goroutine — the serve-layer equivalent of runner.RunFleet's episode
// fan-out — and reports the wall time the merge took to drain them.
func fig10Drive(client func(int) *serve.FleetClient, calls [][]llm.Call) float64 {
	//detlint:allow wallclock harness wall-timing: this measures real drain throughput
	start := time.Now()
	var wg sync.WaitGroup
	for e := range calls {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c := client(e)
			defer c.Finish()
			for _, call := range calls[e] {
				c.Serve(call)
			}
		}(e)
	}
	wg.Wait()
	//detlint:allow wallclock harness wall-timing: this measures real drain throughput
	return float64(time.Since(start).Microseconds()) / 1000
}

// fig10Serve is the endpoint shape of every panel.
func fig10Serve(routing serve.RoutingPolicy) serve.Config {
	return serve.Config{
		Profile: llm.GPT4, Replicas: 4, Routing: routing,
		MaxBatch: 4, MaxWait: 1500 * time.Millisecond, CacheEntries: 512,
	}
}

// Fig10 sweeps both panels. cfg.FleetSizes and cfg.FleetShards
// override the axes (the CLI's -fleet-sizes / -serve-shards).
func Fig10(cfg Config) Fig10Report {
	sizes, shards := cfg.fleetSizes(), cfg.fleetShards()
	var rep Fig10Report

	// Merge scale sweep.
	for _, n := range sizes {
		steps := fig10Steps(fig10MergeBudget, n)
		calls := fig10Streams(n, steps, cfg.Seed)
		for _, k := range shards {
			for _, routing := range fig10Routings {
				sf := serve.NewShardedFleet(fig10Serve(routing), n, k)
				wall := fig10Drive(sf.Client, calls)
				stats := sf.Stats()
				rep.Merge = append(rep.Merge, Fig10MergeRow{
					Episodes: n, Shards: sf.Shards(), Routing: routing,
					Requests: stats.Requests, WallMS: wall,
					AdmitPerSec:   float64(stats.Requests) / (wall / 1000),
					MeanQueueWait: stats.MeanQueueWait(),
					CacheHitRate:  stats.CacheHitRate(),
				})
			}
		}
	}

	// Closed loop: real episodes through the activation-gated runner.
	w := mustGet(fig9System)
	for _, n := range sizes {
		if n > fig10ClosedCap {
			continue
		}
		for _, k := range shards {
			g := runner.FleetGroup{
				Specs: runner.Specs(w, world.Medium, 2, nil,
					multiagent.Options{Parallel: true}, n, cfg.Seed),
				Serve:  fig10Serve(serve.RouteLeastLoaded),
				Shards: k,
			}
			//detlint:allow wallclock harness wall-timing: closed-loop fleet wall time
			start := time.Now()
			res, err := runner.RunFleet(context.Background(), g)
			if err != nil {
				panic("bench: fig10 closed loop: " + err.Error())
			}
			//detlint:allow wallclock harness wall-timing: closed-loop fleet wall time
			wall := float64(time.Since(start).Microseconds()) / 1000
			s := metrics.Summarize(res.Episodes)
			rep.Closed = append(rep.Closed, Fig10ClosedRow{
				Episodes: n, Shards: k, WallMS: wall,
				SuccessRate:   s.SuccessRate,
				MeanQueueWait: res.Serving.MeanQueueWait(),
				CacheHitRate:  res.Serving.CacheHitRate(),
			})
		}
	}
	return rep
}

// Fig10Metrics flattens the report's perf evidence for the trajectory
// record: merge-panel admission rates at the largest swept size (the full
// sweep stays in the rendered report; the trajectory only needs the scale
// frontier).
func Fig10Metrics(rep Fig10Report) map[string]float64 {
	m := make(map[string]float64)
	maxN := 0
	for _, r := range rep.Merge {
		if r.Episodes > maxN {
			maxN = r.Episodes
		}
	}
	for _, r := range rep.Merge {
		if r.Episodes != maxN {
			continue
		}
		key := fmt.Sprintf("merge%d_shards%d_%s_admit_per_sec", r.Episodes, r.Shards, r.Routing)
		m[key] = r.AdmitPerSec
	}
	return m
}

// RenderFig10 formats both panels.
func RenderFig10(rep Fig10Report) string {
	var b strings.Builder
	b.WriteString("Fig. 10 — fleet admission at scale (wall time of the simulation itself)\n")
	b.WriteString("Fig. 10a — merge scale: synthetic episode streams, fixed request budget per cell\n")
	fmt.Fprintf(&b, "%8s %7s %-16s %9s %10s %10s %8s %6s\n",
		"episodes", "shards", "routing", "requests", "wall-ms", "admit/s", "q-wait", "cache")
	for _, r := range rep.Merge {
		fmt.Fprintf(&b, "%8d %7d %-16s %9d %10.1f %10.0f %7.1fs %5.0f%%\n",
			r.Episodes, r.Shards, r.Routing, r.Requests, r.WallMS,
			r.AdmitPerSec, r.MeanQueueWait.Seconds(), 100*r.CacheHitRate)
	}
	b.WriteString("\nFig. 10c — closed loop: real CoELA episodes through the activation-gated runner (2 agents/episode)\n")
	fmt.Fprintf(&b, "%8s %7s %10s %9s %8s %6s\n",
		"episodes", "shards", "wall-ms", "success", "q-wait", "cache")
	for _, r := range rep.Closed {
		fmt.Fprintf(&b, "%8d %7d %10.1f %8.0f%% %7.1fs %5.0f%%\n",
			r.Episodes, r.Shards, r.WallMS, 100*r.SuccessRate,
			r.MeanQueueWait.Seconds(), 100*r.CacheHitRate)
	}
	return b.String()
}
