package bench

import (
	"fmt"
	"strings"
	"time"

	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/multiagent"
	"embench/internal/serve"
	"embench/internal/world"
)

// Fig13 is the disaggregation experiment: split the serving endpoint into
// a prefill pool and a decode pool (serve.Config.Prefill/Decode) and
// overlap each agent's next-step preparation with the previous response's
// decode stream (multiagent.Options.Pipeline). Closed-loop CoELA teams —
// the suite's heaviest per-step call pattern — drive three deployments of
// the same four replicas:
//
//   - monolithic:     the fig9 baseline — every replica runs both stages.
//   - balanced:       2 prefill + 2 decode, KV handoff priced per token.
//   - decode-starved: 3 prefill + 1 decode — prompts clear prefill quickly
//     and then pile up on the single decoding replica.
//
// Each deployment runs with the async pipeline off and on. The two
// regimes the acceptance test pins: with a balanced split, pipelining
// hides next-step preparation behind the decode stream (task latency
// drops, nothing else moves); with a starved decode pool at the larger
// team, decode-stage queueing dominates end-to-end latency no matter the
// pipeline, because the overlap window itself is what is queue-delayed.
//
// Decisions are identical across all twelve cells of one team size: the
// pools, handoff and pipeline only move virtual time, never RNG streams.

// Fig13Row is one (team size, deployment, pipeline) cell.
type Fig13Row struct {
	Agents   int
	Deploy   string // monolithic | balanced | decode-starved
	Pipeline bool
	Replicas int // total replicas across pools

	SuccessRate  float64
	TaskLatency  time.Duration // mean episode duration
	PlanCalls    int
	MeanPlanCall time.Duration // mean latency of a planning LLM call

	// MeanQueueWait is per request, both stages summed on disaggregated
	// deployments.
	MeanQueueWait time.Duration
	// Per-request stage means; zero on monolithic deployments.
	PrefillWait time.Duration
	DecodeWait  time.Duration
	HandoffTime time.Duration
}

// Fig13Report is the full sweep.
type Fig13Report struct {
	Rows []Fig13Row
}

// fig13System is the closed-loop workload: CoELA's three LLM calls per
// agent per step give the decode pool the most to contend over.
const fig13System = "CoELA"

// Fig13Agents is the team-size axis: a light team the single decode
// replica keeps up with, and one that swamps it.
var Fig13Agents = []int{2, 6}

// fig13Replicas is the per-deployment replica budget all three
// deployments spend.
const fig13Replicas = 4

// fig13Profile skews the serving profile toward the disaggregation
// trade-off: a slow prefill (500 tok/s over ~2k-token CoELA prompts is
// seconds of prompt processing) and a decode stream long enough (140
// tokens at 45 tok/s) to hide a whole sensing+retrieval phase behind.
var fig13Profile = func() llm.Profile {
	p := llm.GPT4
	p.Name = "gpt-4-disagg"
	p.Overhead = 400 * time.Millisecond
	p.PrefillRate = 500
	p.DecodeRate = 45
	return p
}()

// fig13Handoff prices the prefill→decode KV transfer: a fixed network
// round trip plus 200k tokens/s of KV-cache movement.
var fig13Handoff = serve.Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}

// fig13Mut pins every module's planner to the skewed profile.
func fig13Mut(cfg *core.AgentConfig) { cfg.Planner = fig13Profile }

// fig13Deployment is one way to spend the replica budget.
type fig13Deployment struct {
	name    string
	mono    int // monolithic replicas; 0 = disaggregated
	prefill int
	decode  int
}

func (d fig13Deployment) total() int { return d.mono + d.prefill + d.decode }

var fig13Deployments = []fig13Deployment{
	{name: "monolithic", mono: fig13Replicas},
	{name: "balanced", prefill: fig13Replicas / 2, decode: fig13Replicas / 2},
	{name: "decode-starved", prefill: fig13Replicas - 1, decode: 1},
}

// fig13Config is the endpoint shape: fig9's closed-loop batching, with
// the same join window and cache budget on both pools when split (the
// prefill pool inherits the parent cache budget; the decode pool never
// caches).
func fig13Config(d fig13Deployment) serve.Config {
	sc := serve.Config{
		Replicas: d.mono,
		MaxBatch: 4, MaxWait: 1500 * time.Millisecond,
		CacheEntries: 512,
	}
	if d.mono == 0 {
		sc.Prefill = serve.PoolConfig{
			Replicas: d.prefill, MaxBatch: 4, MaxWait: 1500 * time.Millisecond,
		}
		sc.Decode = serve.PoolConfig{
			Replicas: d.decode, MaxBatch: 4, MaxWait: 1500 * time.Millisecond,
		}
		sc.Handoff = fig13Handoff
	}
	return sc
}

// Fig13 runs the sweep: every (team, deployment, pipeline) cell is one
// closed-loop episode batch on a per-episode endpoint.
func Fig13(cfg Config) Fig13Report {
	w := mustGet(fig13System)
	var rep Fig13Report
	set := cfg.newBatchSet()
	var ids []int
	for _, n := range Fig13Agents {
		for _, d := range fig13Deployments {
			for _, pipe := range []bool{false, true} {
				sc := fig13Config(d)
				ids = append(ids, set.add(w, world.Medium, n, fig13Mut,
					multiagent.Options{Parallel: true, Serve: &sc, Pipeline: pipe}))
				rep.Rows = append(rep.Rows, Fig13Row{
					Agents: n, Deploy: d.name, Pipeline: pipe, Replicas: d.total(),
				})
			}
		}
	}
	set.run()
	for i := range rep.Rows {
		eps, traces := set.results(ids[i])
		s := metrics.Summarize(eps)
		r := &rep.Rows[i]
		r.SuccessRate = s.SuccessRate
		r.TaskLatency = s.MeanDuration
		r.PlanCalls, r.MeanPlanCall = meanPlanCall(traces)
		r.MeanQueueWait = s.Serving.MeanQueueWait()
		if q := s.Serving.Requests; q > 0 {
			r.PrefillWait = s.Serving.PrefillWait / time.Duration(q)
			r.DecodeWait = s.Serving.DecodeWait / time.Duration(q)
			r.HandoffTime = s.Serving.HandoffTime / time.Duration(q)
		}
	}
	return rep
}

type fig13Cell struct {
	agents   int
	deploy   string
	pipeline bool
}

func (r Fig13Row) cell() fig13Cell { return fig13Cell{r.Agents, r.Deploy, r.Pipeline} }

// Fig13Metrics flattens the acceptance evidence for the perf trajectory:
// per team size, the pipeline's speedup on the balanced split, the
// decode-starved split's latency penalty, and how much of its queueing is
// decode-stage.
func Fig13Metrics(rep Fig13Report) map[string]float64 {
	m := make(map[string]float64)
	for _, n := range Fig13Agents {
		key := fmt.Sprintf("t%d", n)
		balOff := row(rep.Rows, fig13Cell{n, "balanced", false})
		balOn := row(rep.Rows, fig13Cell{n, "balanced", true})
		monoOff := row(rep.Rows, fig13Cell{n, "monolithic", false})
		starved := row(rep.Rows, fig13Cell{n, "decode-starved", false})
		if balOn.TaskLatency > 0 {
			m[key+"_pipeline_speedup"] = float64(balOff.TaskLatency) / float64(balOn.TaskLatency)
		}
		if balOff.TaskLatency > 0 {
			m[key+"_starved_latency_ratio"] = float64(starved.TaskLatency) / float64(balOff.TaskLatency)
		}
		if tot := starved.PrefillWait + starved.DecodeWait; tot > 0 {
			m[key+"_starved_decode_wait_share"] = float64(starved.DecodeWait) / float64(tot)
		}
		if monoOff.TaskLatency > 0 {
			m[key+"_balanced_vs_mono"] = float64(balOff.TaskLatency) / float64(monoOff.TaskLatency)
		}
		m[key+"_balanced_mean_plan_s"] = balOff.MeanPlanCall.Seconds()
	}
	return m
}

// RenderFig13 formats the sweep.
func RenderFig13(rep Fig13Report) string {
	var b strings.Builder
	b.WriteString("Fig. 13 — prefill/decode disaggregation x async agent pipeline (CoELA, medium, 4 replicas)\n")
	fmt.Fprintf(&b, "%6s %-14s %-8s %8s %8s %10s %10s %8s %8s %8s %8s\n",
		"agents", "deploy", "pipeline", "replicas", "success",
		"task-lat", "plan-call", "q-wait", "pre-w", "dec-w", "handoff")
	for _, r := range rep.Rows {
		pipe := "off"
		if r.Pipeline {
			pipe = "on"
		}
		fmt.Fprintf(&b, "%6d %-14s %-8s %8d %7.0f%% %9.1fm %9.1fs %7.1fs %7.1fs %7.1fs %7.2fs\n",
			r.Agents, r.Deploy, pipe, r.Replicas, 100*r.SuccessRate,
			r.TaskLatency.Minutes(), r.MeanPlanCall.Seconds(),
			r.MeanQueueWait.Seconds(), r.PrefillWait.Seconds(),
			r.DecodeWait.Seconds(), r.HandoffTime.Seconds())
	}
	return b.String()
}
