package bench

import (
	"reflect"
	"testing"
	"time"

	"embench/internal/serve"
)

const (
	fig14Mid  = 3 * time.Minute // mid failure rate: stragglers dominate
	fig14High = time.Minute     // extreme failure rate: capacity collapse
)

// TestFig14GracefulDegradation pins the experiment's regime structure:
// the full resilience ladder is free when nothing fails, and at every
// injected failure rate it buys SLO attainment back over the no-policy
// baseline — graceful degradation, not a tradeoff that only pays in one
// regime. Deterministic (fixed seed), so the margins are exact.
func TestFig14GracefulDegradation(t *testing.T) {
	rep := Fig14(Config{Seed: 1})
	if want := len(Fig14MTBFs) * 4; len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), want)
	}

	// Fault-free: every policy step attains the SLO fully and no failure
	// machinery fires — resilience must cost nothing when nothing fails.
	for _, p := range []string{"none", "retry", "retry+hedge", "retry+hedge+shed"} {
		r := row(rep.Rows, fig14Cell{0, p})
		if r.Attainment < 0.999 {
			t.Errorf("fault-free %s: attainment %.3f, want 1.0", p, r.Attainment)
		}
		if r.Shed != 0 || r.TimedOut != 0 || r.Retries != 0 {
			t.Errorf("fault-free %s: shed/timeout/retry = %d/%d/%d, want 0",
				p, r.Shed, r.TimedOut, r.Retries)
		}
		if r.FailedBatches != 0 || r.Downtime != 0 {
			t.Errorf("fault-free %s: failed batches %d, downtime %v", p, r.FailedBatches, r.Downtime)
		}
	}

	// Every faulted step: faults actually happened, and the full ladder
	// clears the no-policy baseline by at least a point of attainment.
	var lastDowntime time.Duration
	for _, mtbf := range Fig14MTBFs[1:] {
		none := row(rep.Rows, fig14Cell{mtbf, "none"})
		full := row(rep.Rows, fig14Cell{mtbf, "retry+hedge+shed"})
		if none.Downtime <= 0 || none.FailedBatches <= 0 {
			t.Errorf("mtbf %v: downtime %v, failed batches %d — faults not injected?",
				mtbf, none.Downtime, none.FailedBatches)
		}
		// The axis shrinks MTBF, so downtime must grow step over step.
		if none.Downtime <= lastDowntime {
			t.Errorf("mtbf %v: downtime %v not above previous step's %v",
				mtbf, none.Downtime, lastDowntime)
		}
		lastDowntime = none.Downtime
		if gain := full.Attainment - none.Attainment; gain < 0.01 {
			t.Errorf("mtbf %v: full-ladder gain %.3f over baseline %.3f, want >= 0.01",
				mtbf, gain, none.Attainment)
		}
	}

	// Mid rate: straggler batches are the dominant SLO killer and only
	// hedging routes around them — hedges must be winning races here.
	midFull := row(rep.Rows, fig14Cell{fig14Mid, "retry+hedge+shed"})
	if gain := midFull.Attainment - row(rep.Rows, fig14Cell{fig14Mid, "none"}).Attainment; gain < 0.015 {
		t.Errorf("mid mtbf: full-ladder gain %.3f, want >= 0.015", gain)
	}
	if midFull.Hedges <= 0 || midFull.HedgeWins <= 0 {
		t.Errorf("mid mtbf: hedges issued/won = %d/%d, want both > 0",
			midFull.Hedges, midFull.HedgeWins)
	}

	// Extreme rate: deadlines prune doomed queues (retry-only beats the
	// baseline by a wide margin), shedding finally binds and buys a far
	// better served tail than letting every request wait out the collapse.
	hiNone := row(rep.Rows, fig14Cell{fig14High, "none"})
	hiRetry := row(rep.Rows, fig14Cell{fig14High, "retry"})
	hiFull := row(rep.Rows, fig14Cell{fig14High, "retry+hedge+shed"})
	if gain := hiRetry.Attainment - hiNone.Attainment; gain < 0.03 {
		t.Errorf("high mtbf: retry gain %.3f over baseline, want >= 0.03", gain)
	}
	if hiFull.Shed == 0 {
		t.Errorf("high mtbf: shed policy never bound")
	}
	if hiFull.P95 >= hiNone.P95 {
		t.Errorf("high mtbf: full-ladder p95 %v not below baseline %v", hiFull.P95, hiNone.P95)
	}
	if hiFull.TimedOut >= hiRetry.TimedOut {
		t.Errorf("high mtbf: full ladder timed out %d, retry-only %d — hedging/shedding should absorb timeouts",
			hiFull.TimedOut, hiRetry.TimedOut)
	}

	// Metrics carry the acceptance evidence for every MTBF step.
	m := Fig14Metrics(rep)
	for _, mtbf := range Fig14MTBFs {
		key := "mtbf_" + fig14MTBFLabel(mtbf)
		for _, suffix := range []string{"_none_attainment", "_full_attainment", "_attainment_gain", "_full_p99_s"} {
			if _, ok := m[key+suffix]; !ok {
				t.Errorf("Fig14Metrics missing %s%s", key, suffix)
			}
		}
	}
}

// TestFig14Accounting is the no-silently-lost-requests contract: every
// offered request resolves exactly once — served, shed, or timed out —
// in every cell, including the ones where crashes kill in-flight batches
// and hedges race duplicates. The row sums check the whole sweep; the
// harshest cell is then re-replayed to check completion-level invariants.
func TestFig14Accounting(t *testing.T) {
	rep := Fig14(Config{Seed: 1})
	for _, r := range rep.Rows {
		if r.Served+r.Shed+r.TimedOut != r.Offered {
			t.Errorf("mtbf %v %s: served %d + shed %d + timed out %d != offered %d",
				r.MTBF, r.Policy, r.Served, r.Shed, r.TimedOut, r.Offered)
		}
	}

	reqs := serve.GenerateTraffic(serve.Traffic{
		Kind: serve.ArriveBursty, Tenants: 24, Horizon: fig12Horizon, Seed: 1,
	})
	p := fig14Policies()[3] // retry+hedge+shed
	res := serve.Replay(
		fig14Config(fig12Autoscale, fig14Faults(fig14High, 1), p),
		fig14Requests(reqs, p.deadline))
	if len(res.Completions) != len(reqs) {
		t.Fatalf("completions = %d, want %d", len(res.Completions), len(reqs))
	}
	var served, shed, timed int
	for i, c := range res.Completions {
		if c.Done < c.Arrival {
			t.Errorf("request %d: resolved at %v before arrival %v", i, c.Done, c.Arrival)
		}
		switch c.Outcome {
		case serve.OutcomeServed:
			served++
			if c.BatchSize < 1 || c.Start < c.Arrival || c.Done <= c.Start {
				t.Errorf("request %d: served with batch %d, span [%v, %v], arrival %v",
					i, c.BatchSize, c.Start, c.Done, c.Arrival)
			}
		case serve.OutcomeShed:
			shed++
		case serve.OutcomeTimedOut:
			timed++
			if c.Retries != p.retry.Max {
				t.Errorf("request %d: timed out after %d retries, want the full budget %d",
					i, c.Retries, p.retry.Max)
			}
		default:
			t.Fatalf("request %d: unknown outcome %q", i, c.Outcome)
		}
	}
	s := res.Stats
	if served != s.Requests || shed != s.ShedRequests || timed != s.TimedOut {
		t.Errorf("completion outcomes %d/%d/%d != stats %d/%d/%d",
			served, shed, timed, s.Requests, s.ShedRequests, s.TimedOut)
	}
	if s.FailedBatches == 0 {
		t.Fatalf("harshest cell killed no batches — crash path untested")
	}
}

// TestFig14Deterministic pins the report as a pure function of the seed,
// independent of the episode-runner parallelism knob.
func TestFig14Deterministic(t *testing.T) {
	a := Fig14(Config{Seed: 3})
	b := Fig14(Config{Seed: 3, Parallelism: 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig14 depends on parallelism")
	}
	if c := Fig14(Config{Seed: 4}); reflect.DeepEqual(a.Rows, c.Rows) {
		t.Fatalf("different seeds produced identical reports")
	}
}
