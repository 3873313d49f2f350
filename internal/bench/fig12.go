package bench

import (
	"fmt"
	"strings"
	"time"

	"embench/internal/llm"
	"embench/internal/serve"
)

// Fig12 is the front-door traffic experiment: replace the fixed episode
// traces of figs. 8–11 with seeded multi-tenant arrival processes and ask
// what a deployment should do about load it does not control (paper Sec. VI
// framing: embodied fleets idle between world events, then every agent
// wakes at once). Three arrival processes (poisson steady state, correlated
// bursts, diurnal swing) drive a tenant-persona population against three
// deployments of the same endpoint:
//
//   - static-small: the cost floor — few replicas, provisioned for the mean.
//   - static-large: the latency floor — provisioned for the peak.
//   - autoscaled:   static-small's cost chasing static-large's tail, with
//     cold-start delay on the way up and warm-cache loss (priced through the
//     fig11 pressure machinery) on the way down.
//
// The headline cells are the bursty ones: the acceptance test asserts the
// autoscaler holds >= 95% of static-large's p99 SLO attainment at <= 60% of
// its replica-seconds.

// Fig12Row is one (arrival process, tenant count, deployment) cell.
type Fig12Row struct {
	Arrival  serve.ArrivalKind
	Tenants  int
	Deploy   string // static-small | static-large | autoscaled
	Replicas int    // provisioned ceiling (autoscaled: Max)

	Requests int
	Makespan time.Duration

	// End-to-end latency quantiles from the fixed-bucket histogram
	// (upper-edge convention: each is within one bucket of the exact
	// order statistic, never below it).
	P50, P95, P99 time.Duration
	// QueueP99 isolates the scheduling share of the tail.
	QueueP99 time.Duration
	// Attainment is the fraction of requests finishing within the SLO.
	Attainment float64

	// ReplicaSeconds is the provisioning cost: replicas x makespan for
	// static deployments, the autoscaler's active-replica time integral
	// otherwise.
	ReplicaSeconds float64
	ScaleUps       int
	ScaleDowns     int
	EvictedTokens  int
	CacheHitRate   float64
}

// Fig12Report bundles the sweep with the SLO it was judged against.
type Fig12Report struct {
	SLO  time.Duration
	Rows []Fig12Row
}

// Fig12Tenants is the default tenant-population axis: a light fleet the
// small deployment handles, and one that overloads it.
var Fig12Tenants = []int{8, 24}

// Fig12SLO is the default end-to-end latency target. A single GPT-4-class
// request costs ~7s of service, so 60s of headroom is queueing budget.
const Fig12SLO = 60 * time.Second

const (
	fig12SmallReplicas = 2
	fig12LargeReplicas = 8
	fig12Horizon       = 30 * time.Minute
)

// fig12Autoscale is the default autoscaled-deployment policy: react within
// one burst onset (short interval, aggressive up-threshold), pay a visible
// cold start, and give back replicas slowly enough to ride out gaps.
var fig12Autoscale = serve.Autoscale{
	Interval:  15 * time.Second,
	ColdStart: 10 * time.Second,
	UpUtil:    0.5,
	DownUtil:  0.25,
	Min:       fig12SmallReplicas,
	Max:       fig12LargeReplicas,
}

// fig12Deployment names one provisioning strategy.
type fig12Deployment struct {
	name      string
	replicas  int
	autoscale serve.Autoscale // zero = static
}

func fig12Deployments(as serve.Autoscale) []fig12Deployment {
	return []fig12Deployment{
		{name: "static-small", replicas: fig12SmallReplicas},
		{name: "static-large", replicas: fig12LargeReplicas},
		{name: "autoscaled", replicas: fig12LargeReplicas, autoscale: as},
	}
}

// fig12Config is the shared endpoint shape: batched like the fig9 closed
// loop, token-budgeted cache like fig11, content-hash identity so the
// tenant persona families share exactly their common preamble.
func fig12Config(d fig12Deployment) serve.Config {
	return serve.Config{
		Profile: llm.GPT4, Replicas: d.replicas,
		MaxBatch: 4, MaxWait: 500 * time.Millisecond,
		CacheEntries: 512, CacheTokens: 8192,
		Identity:  serve.IdentityContent,
		Autoscale: d.autoscale,
	}
}

// Fig12 runs the sweep. Every cell is one deterministic open-loop replay of
// a generated traffic stream; the function is sequential by construction,
// so results are identical at any Config.Parallelism.
func Fig12(cfg Config) Fig12Report {
	slo, as := cfg.slo(), cfg.autoscale()
	rep := Fig12Report{SLO: slo}
	for _, kind := range cfg.arrivals() {
		for _, n := range cfg.tenants(Fig12Tenants) {
			reqs := serve.GenerateTraffic(serve.Traffic{
				Kind: kind, Tenants: n, Horizon: fig12Horizon, Seed: cfg.Seed,
			})
			for _, d := range fig12Deployments(as) {
				res := serve.Replay(fig12Config(d), reqs)
				s := res.Stats
				rep.Rows = append(rep.Rows, Fig12Row{
					Arrival: kind, Tenants: n, Deploy: d.name, Replicas: d.replicas,
					Requests: len(res.Completions), Makespan: res.Makespan,
					P50:            s.LatencyHist.Quantile(0.50),
					P95:            s.LatencyHist.Quantile(0.95),
					P99:            s.LatencyHist.Quantile(0.99),
					QueueP99:       s.QueueWaitHist.Quantile(0.99),
					Attainment:     s.SLOAttainment(slo),
					ReplicaSeconds: replicaSeconds(res, d.replicas),
					ScaleUps:       s.ScaleUps,
					ScaleDowns:     s.ScaleDowns,
					EvictedTokens:  s.EvictedTokens,
					CacheHitRate:   s.CacheHitRate(),
				})
			}
		}
	}
	return rep
}

// replicaSeconds is a replay's provisioning cost: the autoscaler's
// active-replica time integral, or replicas x makespan for a static
// deployment.
func replicaSeconds(res serve.ReplayResult, replicas int) float64 {
	if cost := res.Stats.ReplicaTime.Seconds(); cost != 0 {
		return cost
	}
	return float64(replicas) * res.Makespan.Seconds()
}

type fig12Cell struct {
	arrival serve.ArrivalKind
	tenants int
	deploy  string
}

func (r Fig12Row) cell() fig12Cell { return fig12Cell{r.Arrival, r.Tenants, r.Deploy} }

// Fig12Metrics flattens the acceptance evidence for the perf trajectory:
// per (arrival, tenants) panel, the autoscaler's attainment and cost
// relative to static-large.
func Fig12Metrics(rep Fig12Report) map[string]float64 {
	m := make(map[string]float64)
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		key := fmt.Sprintf("%s_t%d", r.Arrival, r.Tenants)
		if seen[key] {
			continue
		}
		seen[key] = true
		large := row(rep.Rows, fig12Cell{r.Arrival, r.Tenants, "static-large"})
		auto := row(rep.Rows, fig12Cell{r.Arrival, r.Tenants, "autoscaled"})
		m[key+"_autoscaled_attainment"] = auto.Attainment
		if large.Attainment > 0 {
			m[key+"_attainment_ratio"] = auto.Attainment / large.Attainment
		}
		if large.ReplicaSeconds > 0 {
			m[key+"_cost_ratio"] = auto.ReplicaSeconds / large.ReplicaSeconds
		}
		m[key+"_autoscaled_p99_s"] = auto.P99.Seconds()
	}
	return m
}

// RenderFig12 formats the sweep.
func RenderFig12(rep Fig12Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — front-door traffic: arrival processes x deployments (SLO %v end-to-end)\n", rep.SLO)
	fmt.Fprintf(&b, "%-8s %7s %-13s %8s %6s %7s %7s %7s %8s %6s %10s %9s\n",
		"arrival", "tenants", "deploy", "replicas", "reqs",
		"p50", "p95", "p99", "slo-att", "cache", "replica-s", "scale+/-")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-8s %7d %-13s %8d %6d %6.1fs %6.1fs %6.1fs %7.1f%% %5.0f%% %10.0f %5d/%-3d\n",
			r.Arrival, r.Tenants, r.Deploy, r.Replicas, r.Requests,
			r.P50.Seconds(), r.P95.Seconds(), r.P99.Seconds(),
			100*r.Attainment, 100*r.CacheHitRate, r.ReplicaSeconds,
			r.ScaleUps, r.ScaleDowns)
	}
	return b.String()
}
