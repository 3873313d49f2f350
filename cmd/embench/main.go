// Command embench runs workloads and regenerates the paper's tables and
// figures.
//
// Usage:
//
//	embench -exp fig2 [-episodes 5] [-seed 1] [-procs N]  # regenerate a figure
//	embench -exp fig2,fig8 -bench-json BENCH_serve.json   # + machine-readable perf record
//	embench -exp fig10 -fleet-sizes 16,64,256 -serve-shards 1,4  # fleet-admission scale sweep
//	embench -run CoELA [-diff medium] [-agents 2]         # run one episode
//	embench -run CoELA -serve-replicas 1 -serve-batch 4   # ... against a shared endpoint
//	embench -run CoELA -serve-fleet 4 -serve-routing cache-affinity  # fleet of episodes, one endpoint
//	embench -run CoELA -serve-fleet 64 -serve-shards 4    # ... sharded across 4 endpoints
//	embench -run CoELA -serve-fleet 4 -trace-jsonl t.jsonl -trace-out t.json  # flight-record the run
//	embench -run CoELA -serve-fleet 4 -serve-faults on    # fault-injected fleet (seeded crash-restart)
//	embench -replay-trace t.jsonl -serve-replicas 2 -serve-batch 4  # re-run a recorded trace open-loop
//	embench -replay-trace t.jsonl -serve-replicas 2 -serve-faults on -serve-deadline 40s -serve-retry on  # ... resiliently
//	embench -exp fig14                                    # fault injection x resilience-policy sweep
//	embench -list                                         # list workloads/experiments
//	embench -exp fig7 -cpuprofile cpu.prof -memprofile mem.prof  # profile the simulator itself
//
// Experiments fan episodes out over -procs workers (default: all CPUs).
// Episode seeds are derived deterministically from -seed, so reports are
// bit-identical at every -procs value; -procs 1 forces the sequential
// reference path.
//
// The -serve-* flags route every LLM call of a -run episode through one
// shared serving endpoint (internal/serve): -serve-replicas model
// instances placed by -serve-routing, continuous batches of up to
// -serve-batch sequences forming over a -serve-window, and a per-replica
// prefix cache sized in entries (-serve-cache-entries, deprecated) and/or
// tokens (-serve-cache-tokens — the KV-memory budget that also makes
// cache-aware routing capacity-aware), keyed by -serve-cache-identity
// (shape|content). -serve-fleet N attaches N concurrently running episodes
// to ONE endpoint (cross-episode contention), and -serve-aggregate batches
// each step's plan calls explicitly (Rec. 1 step-phase aggregation).
// -exp reads only its axis overrides among them and refuses the rest.
// Flag-by-flag semantics live in docs/EXPERIMENTS.md.
//
// The flight recorder (internal/serve/obs) attaches to any served -run:
// -trace-jsonl writes the event log (cmd/traceview summarizes it, and
// -replay-trace feeds it back through the open-loop replayer), -trace-out
// writes a Chrome trace_event file loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"embench"
	"embench/internal/benchjson"
	"embench/internal/metrics"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/serve/obs"
	"embench/internal/trace"
)

// The -bench-json schema lives in internal/benchjson, shared with
// cmd/perftrack so producer and consumer cannot drift.

func main() {
	var (
		exp      = flag.String("exp", "", "experiments to regenerate, comma-separated (fig2..fig14, table1, table2, opts, calibrate)")
		run      = flag.String("run", "", "workload to run once (e.g. CoELA)")
		diff     = flag.String("diff", "medium", "task difficulty: easy|medium|hard")
		agents   = flag.Int("agents", 0, "team size (0 = workload default)")
		parallel = flag.Bool("parallel", false,
			"overlap independent per-agent spans within a step (Takeaway 6) for -run episodes")
		episodes = flag.Int("episodes", 5, "episodes per configuration")
		seed     = flag.Uint64("seed", 1, "root random seed")
		procs    = flag.Int("procs", runner.DefaultParallelism(),
			"episode worker-pool size for -exp (1 = sequential; output is identical at any value)")
		benchJSON = flag.String("bench-json", "",
			"write per-experiment wall time and report stats as JSON to this path (with -exp)")
		srvReplicas = flag.Int("serve-replicas", 0,
			"route -run LLM calls through a shared endpoint with this many replicas (0 = dedicated serving)")
		srvBatch = flag.Int("serve-batch", 1, "shared endpoint: max sequences per continuous batch")
		srvWait  = flag.Duration("serve-window", 1500*time.Millisecond,
			"shared endpoint: batching window (how long a batch waits/accepts joiners)")
		srvCache    = flag.Int("serve-cache-entries", 512, "shared endpoint: per-replica prefix-cache capacity in entries (0 disables; deprecated sizing — prefer -serve-cache-tokens)")
		srvCacheTok = flag.Int("serve-cache-tokens", 0,
			"shared endpoint: per-replica prefix-cache budget in TOKENS (live cached tokens; 0 = no token budget). Also makes cache-aware routing capacity-aware")
		srvIdentity = flag.String("serve-cache-identity", "",
			"shared endpoint: prefix-cache identity model (shape|content; default shape)")
		srvRoute = flag.String("serve-routing", "",
			"shared endpoint: replica routing policy (least-loaded|cache-affinity|shortest-completion)")
		srvFleet = flag.Int("serve-fleet", 0,
			"run this many concurrent episodes of -run against ONE shared endpoint (0 = single episode with dedicated serving unless -serve-replicas is set)")
		srvShards = flag.String("serve-shards", "",
			"fleet shard count: with -run -serve-fleet, one integer (split the fleet across that many independent endpoints); with -exp fig10, a comma-separated shard axis (default 1,4)")
		fleetSizes = flag.String("fleet-sizes", "",
			"fig10 fleet-size axis, comma-separated (default 16,64,256,1024,2048; CI uses a reduced axis)")
		srvArrivals = flag.String("serve-arrivals", "",
			"fig12 arrival-process axis, comma-separated (poisson|bursty|diurnal; default all three)")
		srvTenants = flag.String("serve-tenants", "",
			"fig12 tenant-count axis, comma-separated positive integers (default 8,24); fig14 runs the first value (default 24)")
		srvSLO = flag.Duration("serve-slo", 0,
			"fig12 and fig14 end-to-end latency SLO (0 = default 60s; must not be negative)")
		srvAutoscale = flag.String("serve-autoscale", "",
			"replica autoscaling: for -exp fig12 and fig14 the autoscaled deployment ('' = fig12 default), for -run and -replay-trace the shared endpoint ('' = none); 'on', or 'interval=30s,cold=15s,up=0.7,down=0.25,min=2,max=8'")
		srvFaults = flag.String("serve-faults", "",
			"deterministic replica fault injection on the shared endpoint: 'on' (mtbf=5m,mttr=30s), or 'mtbf=DUR,mttr=DUR,straggle=DUR,for=DUR,slow=F,seed=N' (''/'off' = none)")
		srvRetry = flag.String("serve-retry", "",
			"client retry policy for -replay-trace: 'on' (max=2,jitter=0.2), or 'max=N,base=DUR,factor=F,jitter=F' (''/'off' = none; needs -serve-deadline to trigger)")
		srvHedge = flag.String("serve-hedge", "",
			"client request hedging for -replay-trace: 'on' (delay=2s), or 'delay=DUR' (''/'off' = none)")
		srvShed = flag.String("serve-shed", "",
			"admission load shedding for -replay-trace: 'on' (queue=32), or 'queue=N,wait=DUR,prio=N' (''/'off' = none)")
		srvDeadline = flag.Duration("serve-deadline", 0,
			"per-attempt deadline stamped on every -replay-trace request (0 = none)")
		traceJSONL = flag.String("trace-jsonl", "",
			"flight-record a served -run (or -replay-trace rerun) and write the event log as JSONL to this path")
		traceOut = flag.String("trace-out", "",
			"flight-record a served -run (or -replay-trace rerun) and write a Chrome trace_event file (Perfetto-loadable) to this path")
		replayTrace = flag.String("replay-trace", "",
			"re-run a recorded JSONL event log open-loop through the serve replayer (uses the -serve-* endpoint flags)")
		srvAgg = flag.Bool("serve-aggregate", false,
			"step-phase query aggregation for decentralized workloads: batch all agents' plan calls of a step explicitly (Rec. 1; no effect on single-agent/centralized systems)")
		srvPrefillReplicas = flag.Int("serve-prefill-replicas", 0,
			"disaggregated serving: prefill-pool replica count (set together with -serve-decode-replicas; leaves -serve-replicas 0)")
		srvPrefillBatch = flag.Int("serve-prefill-batch", 1,
			"disaggregated serving: prefill pool's max sequences per continuous batch")
		srvPrefillWindow = flag.Duration("serve-prefill-window", 0,
			"disaggregated serving: prefill pool's batching window")
		srvDecodeReplicas = flag.Int("serve-decode-replicas", 0,
			"disaggregated serving: decode-pool replica count (set together with -serve-prefill-replicas)")
		srvDecodeBatch = flag.Int("serve-decode-batch", 1,
			"disaggregated serving: decode pool's max sequences per continuous batch")
		srvDecodeWindow = flag.Duration("serve-decode-window", 0,
			"disaggregated serving: decode pool's batching window")
		srvHandoff = flag.String("serve-handoff", "",
			"disaggregated serving: prefill→decode KV-transfer cost, 'lat=40ms,rate=200000' (''/'off' = free)")
		srvPipeline = flag.Bool("serve-pipeline", false,
			"async agent pipeline: overlap each step's sensing/retrieval with the previous plan call's decode window")
		list       = flag.Bool("list", false, "list workloads and experiments")
		cpuProfile = flag.String("cpuprofile", "",
			"write a CPU profile of the embench process (host time, not simulated time) to this path")
		memProfile = flag.String("memprofile", "",
			"write the embench process's allocation profile to this path when the command finishes")
	)
	flag.Parse()

	// Validate mode-independent serving flags up front so a malformed spec
	// fails the same way no matter which mode consumes it.
	if *srvDeadline < 0 {
		fatal(fmt.Errorf("-serve-deadline must not be negative, got %v", *srvDeadline))
	}
	autoscale := parseSpecFlag("serve-autoscale", embench.ParseAutoscale, *srvAutoscale)
	handoff := parseSpecFlag("serve-handoff", embench.ParseHandoff, *srvHandoff)
	faults := parseSpecFlag("serve-faults", embench.ParseFaults, *srvFaults)
	retry := parseSpecFlag("serve-retry", embench.ParseRetry, *srvRetry)
	hedge := parseSpecFlag("serve-hedge", embench.ParseHedge, *srvHedge)
	shed := parseSpecFlag("serve-shed", embench.ParseShed, *srvShed)

	// serveConfig builds the endpoint the -serve-* flags describe, for -run
	// and -replay-trace alike. Negative serving sizes are configuration
	// mistakes: they fail with the flag named instead of silently clamping
	// to a default. minReplicas stands in for -serve-replicas 0 on a
	// monolithic endpoint. TryNew, not Validate, exercises the real
	// construction path, so a bad flag combination errors here instead of
	// panicking mid-run.
	serveConfig := func(minReplicas int) serve.Config {
		for _, v := range []struct {
			name  string
			value int
		}{
			{"serve-replicas", *srvReplicas},
			{"serve-cache-entries", *srvCache},
			{"serve-cache-tokens", *srvCacheTok},
			{"serve-batch", *srvBatch},
			{"serve-fleet", *srvFleet},
			{"serve-prefill-replicas", *srvPrefillReplicas},
			{"serve-prefill-batch", *srvPrefillBatch},
			{"serve-decode-replicas", *srvDecodeReplicas},
			{"serve-decode-batch", *srvDecodeBatch},
		} {
			if v.value < 0 {
				fatal(fmt.Errorf("-%s must be >= 0, got %d", v.name, v.value))
			}
		}
		routing, err := embench.ParseRouting(*srvRoute)
		if err != nil {
			fatal(err)
		}
		identity, err := embench.ParseIdentity(*srvIdentity)
		if err != nil {
			fatal(err)
		}
		replicas := *srvReplicas
		if replicas == 0 && *srvPrefillReplicas == 0 && *srvDecodeReplicas == 0 {
			replicas = minReplicas
		}
		sc := serve.Config{
			Replicas: replicas, Routing: routing, MaxBatch: *srvBatch,
			MaxWait: *srvWait, CacheEntries: *srvCache, CacheTokens: *srvCacheTok,
			Identity: identity, Autoscale: autoscale,
			Prefill: serve.PoolConfig{
				Replicas: *srvPrefillReplicas, MaxBatch: *srvPrefillBatch, MaxWait: *srvPrefillWindow,
			},
			Decode: serve.PoolConfig{
				Replicas: *srvDecodeReplicas, MaxBatch: *srvDecodeBatch, MaxWait: *srvDecodeWindow,
			},
			Handoff: handoff,
			Faults:  faults, Retry: retry, Hedge: hedge, Shed: shed,
		}
		if _, err := serve.TryNew(sc); err != nil {
			fatal(err)
		}
		return sc
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	switch {
	case *list:
		fmt.Println("workloads: ", strings.Join(embench.Workloads(), ", "))
		fmt.Println("experiments:", strings.Join(embench.Experiments(), ", "))
	case *exp != "":
		// Experiments build their own deployments and read only the axis
		// overrides below. Refuse every other -serve-* flag that was set
		// instead of running without it.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "serve-shards", "serve-tenants", "serve-slo", "serve-arrivals", "serve-autoscale":
			default:
				if strings.HasPrefix(f.Name, "serve-") {
					ignored = append(ignored, "-"+f.Name)
				}
			}
		})
		if len(ignored) > 0 {
			fatal(fmt.Errorf("%s: -exp runs each experiment's own deployment; these flags act in -run and -replay-trace only",
				strings.Join(ignored, ", ")))
		}
		sizes := parseSpecFlag("fleet-sizes", parseIntList, *fleetSizes)
		shardAxis := parseSpecFlag("serve-shards", parseIntList, *srvShards)
		tenants := parseSpecFlag("serve-tenants", parseIntList, *srvTenants)
		if *srvSLO < 0 {
			fatal(fmt.Errorf("-serve-slo must not be negative, got %v", *srvSLO))
		}
		var arrivals []string
		for _, part := range strings.Split(*srvArrivals, ",") {
			if part = strings.TrimSpace(part); part != "" {
				// Parsed here only to fail fast with the flag name attached;
				// ExperimentFull re-validates for library callers.
				if _, err := embench.ParseArrival(part); err != nil {
					fatal(fmt.Errorf("-serve-arrivals: %w", err))
				}
				arrivals = append(arrivals, part)
			}
		}
		out := benchjson.File{Suite: "embench", GeneratedBy: "embench -bench-json"}
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			//detlint:allow wallclock harness wall-timing for the run footer; not simulation time
			start := time.Now()
			res, err := embench.ExperimentFull(name, embench.ExperimentConfig{
				Episodes: *episodes, Seed: *seed, Parallelism: *procs,
				FleetSizes: sizes, FleetShards: shardAxis,
				Arrivals: arrivals, Tenants: tenants,
				SLO: *srvSLO, Autoscale: *srvAutoscale,
			})
			if err != nil {
				fatal(err)
			}
			//detlint:allow wallclock harness wall-timing for the run footer; not simulation time
			wall := time.Since(start)
			fmt.Print(res.Report)
			out.Entries = append(out.Entries, benchjson.Entry{
				Experiment: res.Name, Episodes: *episodes, Seed: *seed, Procs: *procs,
				WallMS:     float64(wall.Microseconds()) / 1000,
				ReportB:    len(res.Report),
				ReportRows: strings.Count(res.Report, "\n"),
				Axis:       res.Axis,
				Metrics:    res.Metrics,
			})
			out.TotalWallMS += float64(wall.Microseconds()) / 1000
		}
		if *benchJSON != "" {
			if err := writeBenchJSON(*benchJSON, out); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "embench: wrote %s (%d experiments, %.0f ms total)\n",
				*benchJSON, len(out.Entries), out.TotalWallMS)
		}
	case *replayTrace != "":
		sc := serveConfig(1)
		f, err := os.Open(*replayTrace)
		if err != nil {
			fatal(err)
		}
		events, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := obs.Validate(events); err != nil {
			fatal(err)
		}
		reqs, err := serve.TraceRequests(events)
		if err != nil {
			fatal(err)
		}
		if len(reqs) == 0 {
			fatal(fmt.Errorf("%s holds no submit events — nothing to replay", *replayTrace))
		}
		if *srvDeadline > 0 {
			for i := range reqs {
				reqs[i].Deadline = *srvDeadline
			}
		}
		var rec *obs.Recorder
		var res serve.ReplayResult
		if *traceJSONL != "" || *traceOut != "" {
			rec = obs.NewRecorder()
			res = serve.ReplayObserved(sc, reqs, rec)
		} else {
			res = serve.Replay(sc, reqs)
		}
		s := res.Stats
		fmt.Printf("replayed    %d requests (%d batches) from %s in %.1f simulated min\n",
			len(res.Completions), res.Batches, *replayTrace, res.Makespan.Minutes())
		fmt.Printf("endpoint    %d replica(s) [%s]: %.1fs mean queue wait, %.2f batch occupancy, %.0f%% cache hits, %.1f req/s\n",
			s.Replicas, sc.Routing, s.MeanQueueWait().Seconds(),
			s.BatchOccupancy(), 100*s.CacheHitRate(), res.Throughput())
		printPercentiles(s)
		printResilience(s)
		if rec != nil {
			if err := writeTraces(rec, *traceJSONL, *traceOut); err != nil {
				fatal(err)
			}
		}
	case *run != "":
		// The client policies act in open-loop replay only: closed-loop
		// calls resolve synchronously and rely on server-side crash
		// re-admission. Refuse them instead of running without them.
		var replayOnly []string
		for _, p := range []struct {
			name string
			set  bool
		}{
			{"serve-retry", retry != serve.RetryPolicy{}},
			{"serve-hedge", hedge != serve.HedgePolicy{}},
			{"serve-shed", shed != serve.ShedPolicy{}},
			{"serve-deadline", *srvDeadline > 0},
		} {
			if p.set {
				replayOnly = append(replayOnly, "-"+p.name)
			}
		}
		if len(replayOnly) > 0 {
			fatal(fmt.Errorf("%s: client policies act in -replay-trace only; -run serves closed loop without them",
				strings.Join(replayOnly, ", ")))
		}
		sc := serveConfig(0)
		disagg := sc.Prefill.Replicas > 0 || sc.Decode.Replicas > 0
		opt := embench.Options{
			Seed: *seed, Parallel: *parallel, Aggregate: *srvAgg,
			Pipeline: *srvPipeline,
		}
		// The flight recorder attaches to the shared endpoint, so tracing a
		// run requires one (dedicated per-agent serving has no sink seam).
		var rec *obs.Recorder
		if *traceJSONL != "" || *traceOut != "" {
			if *srvFleet <= 0 && *srvReplicas <= 0 && !disagg {
				fatal(fmt.Errorf("-trace-jsonl/-trace-out need a shared endpoint: set -serve-fleet, -serve-replicas or the -serve-prefill-*/-serve-decode-* pools"))
			}
			rec = obs.NewRecorder()
			opt.Sink = rec
		}
		if *srvFleet > 0 {
			// Fleet mode: the episodes (one is allowed — the degenerate
			// fleet) run against a shared deployment of -serve-shards
			// independent endpoints (default 1).
			shards := 1
			if *srvShards != "" {
				list, err := parseIntList(*srvShards)
				if err != nil || len(list) != 1 {
					fatal(fmt.Errorf("-serve-shards with -run takes one integer, got %q", *srvShards))
				}
				shards = list[0]
			}
			res, err := embench.RunFleet(*run, *diff, *agents, *srvFleet, shards, opt, sc)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("workload    %s (%s, seed %d) × %d concurrent episodes on %d shard(s)\n",
				*run, *diff, *seed, *srvFleet, shards)
			for i, e := range res.Episodes {
				fmt.Printf("episode %-2d  success=%-5v steps=%-3d sim=%6.1fm  queue=%5.1fs  cache=%3.0f%%\n",
					i, e.Success, e.Steps, e.SimDuration.Minutes(),
					e.Serving.MeanQueueWait().Seconds(), 100*e.Serving.CacheHitRate())
			}
			s := res.Serving
			fmt.Printf("endpoint    %d requests on %d replica(s) [%s]: %.1fs mean queue wait, %.2f batch occupancy, %.0f%% cache hits\n",
				s.Requests, s.Replicas, sc.Routing, s.MeanQueueWait().Seconds(),
				s.BatchOccupancy(), 100*s.CacheHitRate())
			fmt.Printf("kv cache    %.2f max replica share, %d peak cached tokens, %d evicted tokens\n",
				s.MaxReplicaShare(), s.CacheTokensPeak, s.EvictedTokens)
			printPercentiles(s)
			printResilience(s)
			if rec != nil {
				if err := writeTraces(rec, *traceJSONL, *traceOut); err != nil {
					fatal(err)
				}
			}
			return
		}
		if *srvReplicas > 0 || disagg {
			opt.Serve = &sc
		} else {
			// Serve tuning flags do nothing without an endpoint; say so
			// instead of silently running with dedicated serving.
			// -serve-aggregate and -serve-pipeline stay out of the warning:
			// both also work against dedicated serving.
			flag.Visit(func(f *flag.Flag) {
				if strings.HasPrefix(f.Name, "serve-") && f.Name != "serve-replicas" &&
					f.Name != "serve-aggregate" && f.Name != "serve-pipeline" {
					fmt.Fprintf(os.Stderr,
						"embench: -%s has no effect without -serve-replicas > 0 (running with dedicated serving)\n", f.Name)
				}
			})
		}
		out, err := embench.RunOpt(*run, *diff, *agents, opt)
		if err != nil {
			fatal(err)
		}
		e := out.Episode
		fmt.Printf("workload    %s (%s, seed %d)\n", *run, *diff, *seed)
		fmt.Printf("success     %v\n", e.Success)
		fmt.Printf("steps       %d (cap hit: %v)\n", e.Steps, e.ReachedLimit)
		fmt.Printf("sim time    %.1f min (%.1f s/step)\n",
			e.SimDuration.Minutes(), e.SimDuration.Seconds()/float64(max(e.Steps, 1)))
		fmt.Printf("llm         %d calls, %d prompt tokens, %d output tokens (%.0f%% of latency)\n",
			e.LLMCalls, e.PromptTokens, e.OutputTokens, 100*e.LLMShare)
		if e.Messages.Generated > 0 {
			fmt.Printf("messages    %d generated, %.0f%% useful\n",
				e.Messages.Generated, 100*e.Messages.UsefulRate())
		}
		if s := e.Serving; s.Requests > 0 {
			fmt.Printf("serving     %d requests on %d replica(s): %.1fs mean queue wait, %.2f batch occupancy, %.0f%% cache hits\n",
				s.Requests, s.Replicas, s.MeanQueueWait().Seconds(),
				s.BatchOccupancy(), 100*s.CacheHitRate())
		}
		fmt.Printf("breakdown  ")
		for _, m := range trace.Modules {
			if d, ok := e.Breakdown[m]; ok && d > 0 {
				fmt.Printf(" %s=%.1fs", m, d.Seconds())
			}
		}
		fmt.Println()
		if rec != nil {
			if err := writeTraces(rec, *traceJSONL, *traceOut); err != nil {
				fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printPercentiles renders the serving latency tails: end-to-end and
// queue-wait p50/p95/p99 from the endpoint's exactly mergeable histograms.
func printPercentiles(s metrics.Serving) {
	q := func(h metrics.Hist, p float64) float64 { return h.Quantile(p).Seconds() }
	fmt.Printf("latency     p50=%.1fs p95=%.1fs p99=%.1fs end-to-end; queue p50=%.1fs p95=%.1fs p99=%.1fs\n",
		q(s.LatencyHist, 0.50), q(s.LatencyHist, 0.95), q(s.LatencyHist, 0.99),
		q(s.QueueWaitHist, 0.50), q(s.QueueWaitHist, 0.95), q(s.QueueWaitHist, 0.99))
}

// printResilience renders the fault/resilience counters; quiet when no
// failure machinery fired, so fault-free output is unchanged.
func printResilience(s metrics.Serving) {
	if s.ShedRequests == 0 && s.Retries == 0 && s.HedgesIssued == 0 &&
		s.TimedOut == 0 && s.FailedBatches == 0 && s.ReplicaDowntime == 0 {
		return
	}
	fmt.Printf("resilience  %d shed, %d retries, %d hedges (%d won), %d timed out; %d batches crash-killed, %.0fs replica downtime\n",
		s.ShedRequests, s.Retries, s.HedgesIssued, s.HedgeWins, s.TimedOut,
		s.FailedBatches, s.ReplicaDowntime.Seconds())
}

// parseSpecFlag parses one serving-spec or axis flag, exiting with the
// flag name attached on a bad value.
func parseSpecFlag[T any](name string, parse func(string) (T, error), spec string) T {
	v, err := parse(spec)
	if err != nil {
		fatal(fmt.Errorf("-%s: %w", name, err))
	}
	return v
}

// writeTraces persists a recorded event stream in the requested formats:
// JSONL (the interchange format traceview and -replay-trace consume) and/or
// Chrome trace_event JSON (Perfetto / chrome://tracing).
func writeTraces(rec *obs.Recorder, jsonlPath, chromePath string) error {
	events := rec.Events()
	write := func(path, what string, fn func(w *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "embench: wrote %s (%s, %d events)\n", path, what, len(events))
		return nil
	}
	if jsonlPath != "" {
		if err := write(jsonlPath, "event log", func(w *os.File) error {
			return obs.WriteJSONL(w, events)
		}); err != nil {
			return err
		}
	}
	if chromePath != "" {
		if err := write(chromePath, "Chrome trace", func(w *os.File) error {
			return obs.WriteChromeTrace(w, events)
		}); err != nil {
			return err
		}
	}
	return nil
}

// startProfiles starts the harness-side profiles of the embench process
// itself: a CPU profile from now until stop, and an allocation profile
// that stop writes. They measure the simulator on the host, never the
// simulated clock. An empty path turns that profile off.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // the profile reports allocations as of the last GC
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}

// writeBenchJSON persists the perf record with a trailing newline so the
// file diffs cleanly across runs.
func writeBenchJSON(path string, out benchjson.File) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseIntList parses a comma-separated list of positive integers; the
// empty string is nil (use the experiment's default axis).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embench:", err)
	os.Exit(1)
}
