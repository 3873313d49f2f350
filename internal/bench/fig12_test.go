package bench

import (
	"reflect"
	"testing"

	"embench/internal/serve"
)

// fig12TestConfig keeps the sweep cheap but on the default axes — the
// acceptance bound is asserted on exactly what CI regenerates.
func fig12TestConfig() Config { return Config{Seed: 1} }

// TestFig12Shape checks the sweep covers every (arrival, tenants,
// deployment) cell with live traffic and sane per-cell invariants.
func TestFig12Shape(t *testing.T) {
	rep := Fig12(fig12TestConfig())
	arrivals, tenants := serve.ArrivalKinds(), Fig12Tenants
	if want := len(arrivals) * len(tenants) * 3; len(rep.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), want)
	}
	for _, kind := range arrivals {
		for _, n := range tenants {
			small := row(rep.Rows, fig12Cell{kind, n, "static-small"})
			large := row(rep.Rows, fig12Cell{kind, n, "static-large"})
			auto := row(rep.Rows, fig12Cell{kind, n, "autoscaled"})
			if small.Requests == 0 || small.Requests != large.Requests || small.Requests != auto.Requests {
				t.Fatalf("%s/t%d: request counts diverge: %d/%d/%d",
					kind, n, small.Requests, large.Requests, auto.Requests)
			}
			for _, r := range []Fig12Row{small, large, auto} {
				if r.P50 > r.P95 || r.P95 > r.P99 {
					t.Fatalf("%s/t%d/%s: quantiles not monotone: %v/%v/%v",
						kind, n, r.Deploy, r.P50, r.P95, r.P99)
				}
				if r.Attainment < 0 || r.Attainment > 1 {
					t.Fatalf("%s/t%d/%s: attainment %v out of range", kind, n, r.Deploy, r.Attainment)
				}
				if r.ReplicaSeconds <= 0 {
					t.Fatalf("%s/t%d/%s: non-positive cost %v", kind, n, r.Deploy, r.ReplicaSeconds)
				}
			}
			// Static cost is replicas x makespan by construction; the
			// autoscaler must undercut the peak deployment's provisioning.
			if auto.ReplicaSeconds >= large.ReplicaSeconds {
				t.Fatalf("%s/t%d: autoscaled cost %.0f not below static-large %.0f",
					kind, n, auto.ReplicaSeconds, large.ReplicaSeconds)
			}
		}
	}
}

// TestFig12Deterministic: the whole report is byte-identical across reruns
// and across Parallelism values (the sweep is sequential by construction,
// so -procs cannot reorder it — this pins that property).
func TestFig12Deterministic(t *testing.T) {
	a := Fig12(fig12TestConfig())
	b := Fig12(fig12TestConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fig12 is not deterministic across reruns")
	}
	par := fig12TestConfig()
	par.Parallelism = 4
	if c := Fig12(par); !reflect.DeepEqual(a, c) {
		t.Fatal("fig12 depends on Parallelism")
	}
	if RenderFig12(a) != RenderFig12(b) {
		t.Fatal("rendered fig12 is not deterministic")
	}
}

// TestFig12Acceptance is the PR's headline bound, asserted on the bursty
// panel at every tenant count: the autoscaler reaches >= 95% of
// static-large's SLO attainment at <= 60% of its replica-seconds.
func TestFig12Acceptance(t *testing.T) {
	rep := Fig12(fig12TestConfig())
	for _, n := range Fig12Tenants {
		large := row(rep.Rows, fig12Cell{serve.ArriveBursty, n, "static-large"})
		auto := row(rep.Rows, fig12Cell{serve.ArriveBursty, n, "autoscaled"})
		t.Logf("bursty/t%d: attainment auto %.3f vs large %.3f; cost auto %.0f vs large %.0f (ratio %.2f)",
			n, auto.Attainment, large.Attainment,
			auto.ReplicaSeconds, large.ReplicaSeconds,
			auto.ReplicaSeconds/large.ReplicaSeconds)
		if auto.Attainment < 0.95*large.Attainment {
			t.Errorf("bursty/t%d: autoscaled attainment %.3f < 95%% of static-large %.3f",
				n, auto.Attainment, large.Attainment)
		}
		if auto.ReplicaSeconds > 0.60*large.ReplicaSeconds {
			t.Errorf("bursty/t%d: autoscaled cost %.0f > 60%% of static-large %.0f",
				n, auto.ReplicaSeconds, large.ReplicaSeconds)
		}
		if auto.ScaleUps == 0 || auto.ScaleDowns == 0 {
			t.Errorf("bursty/t%d: autoscaler never moved (%d up, %d down)",
				n, auto.ScaleUps, auto.ScaleDowns)
		}
	}
}

// TestFig12Metrics checks the trajectory metrics carry the acceptance
// evidence for every panel.
func TestFig12Metrics(t *testing.T) {
	m := Fig12Metrics(Fig12(fig12TestConfig()))
	for _, key := range []string{
		"bursty_t8_attainment_ratio", "bursty_t24_cost_ratio",
		"poisson_t8_autoscaled_attainment", "diurnal_t24_autoscaled_p99_s",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("Fig12Metrics missing %q (have %d keys)", key, len(m))
		}
	}
}
