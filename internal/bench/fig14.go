package bench

import (
	"fmt"
	"strings"
	"time"

	"embench/internal/serve"
)

// Fig14 is the resilience experiment: inject deterministic replica
// failures (crash-restart plus straggler episodes, internal/serve/faults)
// into the fig12 bursty front-door workload and sweep client resilience
// policies against them. The question is the classic serving one — how
// much of the fault-free SLO attainment can deadlines, retries, hedging
// and load shedding buy back as the failure rate climbs?
//
// The sweep is MTBF x policy on one autoscaled deployment:
//
//   - none:  the trace as-is. Requests never give up, so every crash
//     victim re-enters admission and waits out repair windows in queue —
//     nothing is lost, but the latency tail absorbs every fault.
//   - retry: a per-attempt deadline plus seeded exponential-backoff
//     retries. Expired attempts leave the queue (pruning it for everyone
//     behind them) and re-enter later; exhausted budgets surface as
//     timed-out requests rather than unbounded waits.
//   - retry+hedge: adds a duplicate attempt when the primary has sat
//     queued past the hedge delay — first completion wins, which routes
//     around down and straggling replicas.
//   - retry+hedge+shed: adds admission control — when the oldest queued
//     attempt has gone stale (waited most of the deadline), new arrivals
//     are rejected immediately, trading explicit shed failures for a
//     bounded queue during repair pile-ups.
//
// Attainment here is OVERALL: the fraction of OFFERED requests served
// within the SLO. Shed and timed-out requests count against it, so a
// policy cannot win by dropping work — it wins only if sacrificing some
// requests gets strictly more of the rest under the deadline.

// Fig14Row is one (MTBF, policy) cell.
type Fig14Row struct {
	MTBF   time.Duration // 0 = fault-free baseline
	Policy string        // none | retry | retry+hedge | retry+hedge+shed

	Offered  int // requests in the generated trace
	Served   int
	Shed     int
	TimedOut int

	Retries   int
	Hedges    int
	HedgeWins int

	FailedBatches int
	Downtime      time.Duration // summed active-replica repair time

	// Served-request end-to-end latency quantiles (histogram upper-edge
	// convention, as fig12).
	P50, P95, P99 time.Duration
	// Attainment is served-within-SLO over OFFERED, not over served.
	Attainment float64

	ReplicaSeconds float64
	ScaleUps       int
	Makespan       time.Duration
}

// Fig14Report bundles the sweep with its axes' fixed parameters.
type Fig14Report struct {
	SLO     time.Duration
	Tenants int
	Rows    []Fig14Row
}

// Fig14MTBFs is the failure-rate axis: fault-free, then mean time between
// failures shrinking to one crash per replica per minute. With 8 replicas
// even 10m MTBF means a crash somewhere roughly every 75s.
var Fig14MTBFs = []time.Duration{0, 10 * time.Minute, 3 * time.Minute, time.Minute}

// fig14Faults is the fault process for one MTBF step: repair windows of
// 60s mean, plus straggler episodes (~20s long, ~90s apart) during which
// a batch pays 6x service — slow enough that a straggler batch alone
// blows the SLO, which is the failure mode only hedging can route
// around (crash victims re-enter admission server-side, but a slow
// in-flight batch is invisible to the server until it completes). Fault
// schedules root at the traffic seed — same seed, same crashes, any
// policy.
func fig14Faults(mtbf time.Duration, seed uint64) serve.Faults {
	if mtbf <= 0 {
		return serve.Faults{}
	}
	return serve.Faults{
		MTBF: mtbf, MTTR: 60 * time.Second,
		StragglerEvery: 90 * time.Second, StragglerFor: 20 * time.Second,
		StragglerFactor: 6,
		Seed:            seed,
	}
}

// fig14Policy is one resilience ladder step.
type fig14Policy struct {
	name     string
	deadline time.Duration // stamped on every request; 0 = none
	retry    serve.RetryPolicy
	hedge    serve.HedgePolicy
	shed     serve.ShedPolicy
}

// fig14Deadline is the per-attempt deadline of every policy above "none":
// the SLO minus generous service headroom. Tighter deadlines look
// proactive but lose — an attempt 25s deep in a burst queue usually
// still makes the 60s target, and killing it just resets its queue
// position — so the deadline is set to fire only on attempts that were
// going to miss anyway, where abandoning them prunes the queue for
// everyone behind.
const fig14Deadline = 40 * time.Second

// fig14Policies is the policy ladder, each step adding one mechanism.
// The hedge delay sits just above the fault-free p50 (a queued-past-10s
// attempt is behind a burst or a fault, and a duplicate elsewhere is
// cheap insurance); the shed staleness threshold sits just under the
// deadline, so admission closes exactly when the queue's head is about
// to start timing out — the regime where a new arrival is doomed.
func fig14Policies() []fig14Policy {
	retry := serve.RetryPolicy{Max: 2, Base: 500 * time.Millisecond, Factor: 2, Jitter: 0.2}
	hedge := serve.HedgePolicy{Delay: 10 * time.Second}
	shed := serve.ShedPolicy{Wait: 35 * time.Second}
	return []fig14Policy{
		{name: "none"},
		{name: "retry", deadline: fig14Deadline, retry: retry},
		{name: "retry+hedge", deadline: fig14Deadline, retry: retry, hedge: hedge},
		{name: "retry+hedge+shed", deadline: fig14Deadline, retry: retry, hedge: hedge, shed: shed},
	}
}

// fig14Replicas is the provisioning ceiling — fig12's large pool. The
// autoscaled deployment rides between fig12Autoscale.Min and this.
const fig14Replicas = 8

// fig14Config is the fig12 autoscaled deployment carrying one fault
// process and one policy step.
func fig14Config(as serve.Autoscale, fx serve.Faults, p fig14Policy) serve.Config {
	if as.Max <= 0 || as.Max > fig14Replicas {
		as.Max = fig14Replicas
	}
	cfg := fig12Config(fig12Deployment{
		name: "autoscaled", replicas: fig14Replicas, autoscale: as,
	})
	cfg.Faults = fx
	cfg.Retry = p.retry
	cfg.Hedge = p.hedge
	cfg.Shed = p.shed
	return cfg
}

// fig14Requests stamps the policy's deadline onto a copy of the trace
// (the trace itself is shared across cells and must stay untouched).
func fig14Requests(reqs []serve.Request, deadline time.Duration) []serve.Request {
	if deadline <= 0 {
		return reqs
	}
	out := append([]serve.Request(nil), reqs...)
	for i := range out {
		out[i].Deadline = deadline
	}
	return out
}

// Fig14 runs the sweep: one bursty tenant population (fig12's heavy
// panel), every (MTBF, policy) cell a deterministic open-loop replay.
// Sequential by construction, identical at any Config.Parallelism.
func Fig14(cfg Config) Fig14Report {
	slo, as := cfg.slo(), cfg.autoscale()
	tenants := cfg.tenants([]int{24})[0]
	reqs := serve.GenerateTraffic(serve.Traffic{
		Kind: serve.ArriveBursty, Tenants: tenants, Horizon: fig12Horizon, Seed: cfg.Seed,
	})
	rep := Fig14Report{SLO: slo, Tenants: tenants}
	for _, mtbf := range Fig14MTBFs {
		fx := fig14Faults(mtbf, cfg.Seed)
		for _, p := range fig14Policies() {
			res := serve.Replay(fig14Config(as, fx, p), fig14Requests(reqs, p.deadline))
			s := res.Stats
			att := 0.0
			if len(reqs) > 0 {
				att = s.SLOAttainment(slo) * float64(s.Requests) / float64(len(reqs))
			}
			rep.Rows = append(rep.Rows, Fig14Row{
				MTBF: mtbf, Policy: p.name,
				Offered: len(reqs), Served: s.Requests,
				Shed: s.ShedRequests, TimedOut: s.TimedOut,
				Retries: s.Retries, Hedges: s.HedgesIssued, HedgeWins: s.HedgeWins,
				FailedBatches: s.FailedBatches, Downtime: s.ReplicaDowntime,
				P50:            s.LatencyHist.Quantile(0.50),
				P95:            s.LatencyHist.Quantile(0.95),
				P99:            s.LatencyHist.Quantile(0.99),
				Attainment:     att,
				ReplicaSeconds: replicaSeconds(res, fig14Replicas),
				ScaleUps:       s.ScaleUps,
				Makespan:       res.Makespan,
			})
		}
	}
	return rep
}

type fig14Cell struct {
	mtbf   time.Duration
	policy string
}

func (r Fig14Row) cell() fig14Cell { return fig14Cell{r.MTBF, r.Policy} }

// fig14MTBFLabel names an MTBF step for metrics keys and the table.
func fig14MTBFLabel(mtbf time.Duration) string {
	if mtbf <= 0 {
		return "off"
	}
	return mtbf.String()
}

// Fig14Metrics flattens the acceptance evidence for the perf trajectory:
// per MTBF step, the no-policy baseline attainment, the full ladder's
// attainment and their gap, plus the full ladder's p99.
func Fig14Metrics(rep Fig14Report) map[string]float64 {
	m := make(map[string]float64)
	for _, mtbf := range Fig14MTBFs {
		key := "mtbf_" + fig14MTBFLabel(mtbf)
		none := row(rep.Rows, fig14Cell{mtbf, "none"})
		full := row(rep.Rows, fig14Cell{mtbf, "retry+hedge+shed"})
		m[key+"_none_attainment"] = none.Attainment
		m[key+"_full_attainment"] = full.Attainment
		m[key+"_attainment_gain"] = full.Attainment - none.Attainment
		m[key+"_full_p99_s"] = full.P99.Seconds()
	}
	return m
}

// RenderFig14 formats the sweep.
func RenderFig14(rep Fig14Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — fault injection x resilience policy (bursty, %d tenants, SLO %v; attainment over OFFERED)\n",
		rep.Tenants, rep.SLO)
	fmt.Fprintf(&b, "%-6s %-17s %6s %6s %5s %5s %6s %6s %6s %7s %7s %7s %8s %9s\n",
		"mtbf", "policy", "served", "shed", "t/o", "retry", "hedge", "fail", "down",
		"p50", "p95", "p99", "slo-att", "replica-s")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-6s %-17s %6d %6d %5d %5d %6d %6d %5.0fs %6.1fs %6.1fs %6.1fs %7.1f%% %9.0f\n",
			fig14MTBFLabel(r.MTBF), r.Policy, r.Served, r.Shed, r.TimedOut,
			r.Retries, r.Hedges, r.FailedBatches, r.Downtime.Seconds(),
			r.P50.Seconds(), r.P95.Seconds(), r.P99.Seconds(),
			100*r.Attainment, r.ReplicaSeconds)
	}
	return b.String()
}
