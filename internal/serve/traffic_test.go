package serve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"embench/internal/prompt"
	"embench/internal/rng"
)

// TestTrafficDeterministic: same seed → byte-identical request streams,
// for every arrival kind. (Generation is a pure single-threaded function —
// the same property the fig12 test re-checks through the full experiment
// across -procs values.)
func TestTrafficDeterministic(t *testing.T) {
	for _, kind := range ArrivalKinds() {
		cfg := Traffic{Kind: kind, Tenants: 6, Horizon: 20 * time.Minute, Seed: 11}
		a, b := GenerateTraffic(cfg), GenerateTraffic(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical seeds produced different streams", kind)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty stream", kind)
		}
		for i := 1; i < len(a); i++ {
			if a[i].Arrival < a[i-1].Arrival {
				t.Fatalf("%s: arrivals not sorted at %d", kind, i)
			}
		}
		if c := GenerateTraffic(Traffic{Kind: kind, Tenants: 6, Horizon: 20 * time.Minute, Seed: 12}); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical streams", kind)
		}
	}
}

// TestTrafficSharedPrompts: sharing each tenant's prompts and agent name
// across its requests yields exactly the trace that building every
// request's prompt afresh does, and the sharing really happens.
func TestTrafficSharedPrompts(t *testing.T) {
	for _, kind := range ArrivalKinds() {
		tr := Traffic{Kind: kind, Tenants: 5, Horizon: 40 * time.Minute, Seed: 3}
		got := GenerateTraffic(tr)
		tr = tr.withDefaults()
		src := rng.New(tr.Seed).Sub("serve/traffic")
		var bursts []burstWindow
		if tr.Kind == ArriveBursty {
			bursts = burstPhases(src, tr.Horizon, tr.BurstOn, tr.BurstOff)
		}
		var want []Request
		for id := 0; id < tr.Tenants; id++ {
			for seq, at := range tenantArrivals(tr, id, src, bursts) {
				want = append(want, Request{Agent: fmt.Sprintf("t%d", id), Arrival: at,
					Prompt: tenantPrompt(id, seq), OutTokens: 60})
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].Arrival < want[b].Arrival })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shared-prompt trace differs from per-request construction", kind)
		}
		arrays := map[*prompt.Section]bool{}
		for _, r := range got {
			arrays[&r.Prompt.Sections[0]] = true
		}
		if distinct := tr.Tenants * histTurns; len(got) <= distinct || len(arrays) > distinct {
			t.Fatalf("%s: %d requests hold %d section arrays, want more requests than %d and at most that many arrays",
				kind, len(got), len(arrays), distinct)
		}
	}
}

// TestTrafficPoissonInterarrivalMean is the seeded statistical sanity
// check: at n ≈ 10k the empirical mean interarrival of a single-tenant
// Poisson stream is within 5% of 1/rate.
func TestTrafficPoissonInterarrivalMean(t *testing.T) {
	cfg := Traffic{
		Kind: ArrivePoisson, Tenants: 1, Rate: 1.0,
		Horizon: 11000 * time.Second, Seed: 3,
	}
	reqs := GenerateTraffic(cfg)
	if len(reqs) < 10000 {
		t.Fatalf("want >= 10000 arrivals for the mean test, got %d", len(reqs))
	}
	reqs = reqs[:10000]
	var sum time.Duration
	prev := time.Duration(0)
	for _, r := range reqs {
		sum += r.Arrival - prev
		prev = r.Arrival
	}
	mean := sum.Seconds() / float64(len(reqs))
	if math.Abs(mean-1.0) > 0.05 {
		t.Fatalf("Poisson mean interarrival = %.4fs, want 1.0s ± 5%%", mean)
	}
}

// tenantRequests filters one tenant's requests out of a merged stream.
func tenantRequests(reqs []Request, agent string) []Request {
	var out []Request
	for _, r := range reqs {
		if r.Agent == agent {
			out = append(out, r)
		}
	}
	return out
}

// TestTrafficTenantStreamsDisjoint: every tenant draws from its own named
// RNG stream, so growing the population leaves existing tenants'
// request sequences byte-identical — no cross-tenant coupling. Bursty
// included: the shared burst schedule comes from a population-independent
// stream.
func TestTrafficTenantStreamsDisjoint(t *testing.T) {
	for _, kind := range ArrivalKinds() {
		small := GenerateTraffic(Traffic{Kind: kind, Tenants: 3, Horizon: 30 * time.Minute, Seed: 9})
		large := GenerateTraffic(Traffic{Kind: kind, Tenants: 5, Horizon: 30 * time.Minute, Seed: 9})
		for _, agent := range []string{"t0", "t1", "t2"} {
			a, b := tenantRequests(small, agent), tenantRequests(large, agent)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: tenant %s's stream changed when the population grew (%d vs %d reqs)",
					kind, agent, len(a), len(b))
			}
		}
		if len(tenantRequests(large, "t4")) == 0 && kind != ArriveBursty {
			t.Fatalf("%s: added tenant produced no traffic", kind)
		}
	}
}

// TestTrafficBurstsCorrelated pins the bursty process's fleet-wide phase:
// during off-phases no tenant emits, so the pooled stream's arrivals all
// land inside the shared windows (which is what gives autoscaling a
// correlated spike to chase).
func TestTrafficBurstsCorrelated(t *testing.T) {
	cfg := Traffic{Kind: ArriveBursty, Tenants: 8, Horizon: time.Hour, Seed: 5}.withDefaults()
	windows := burstPhases(rng.New(cfg.Seed).Sub("serve/traffic"), cfg.Horizon, cfg.BurstOn, cfg.BurstOff)
	if len(windows) == 0 {
		t.Skip("seed produced no burst windows inside the horizon")
	}
	reqs := GenerateTraffic(cfg)
	if len(reqs) == 0 {
		t.Fatal("bursty stream is empty")
	}
	for _, r := range reqs {
		inside := false
		for _, w := range windows {
			if r.Arrival >= w.start && r.Arrival < w.end {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("arrival %v outside every burst window", r.Arrival)
		}
	}
}

// TestTrafficPersonaPrefixes checks the persona family shape: one
// fleet-wide preamble plus per-tenant personas, so a prefix cache shares
// the preamble across tenants but never personas.
func TestTrafficPersonaPrefixes(t *testing.T) {
	reqs := GenerateTraffic(Traffic{Tenants: 2, Horizon: 30 * time.Minute, Seed: 1})
	c := newPrefixCache(64, 0)
	a := tenantRequests(reqs, "t0")
	b := tenantRequests(reqs, "t1")
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("need traffic from both tenants")
	}
	c.insert(a[0].Prompt)
	// The other tenant hits exactly the 700-token system+task preamble:
	// persona and history diverge.
	if got := c.match(b[0].Prompt); got != 700 {
		t.Fatalf("cross-tenant prefix hit = %d tokens, want 700 (shared preamble only)", got)
	}
	// A tenant's own follow-up re-hits its persona too.
	if len(a) > 1 {
		if got := c.match(a[1].Prompt); got < 1400 {
			t.Fatalf("same-tenant prefix hit = %d tokens, want >= 1400 (preamble+persona)", got)
		}
	}
}
