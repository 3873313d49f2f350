package serve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/serve/obs"
)

// updateGolden rewrites the testdata goldens of the seed-equivalence tests.
// testdata/replay_seed.golden was generated on the seed replay loop (the
// policy-free event loop that predates the attempt-scheduled one), and
// testdata/serve_seed.golden on the closed-loop Serve/ServeBatch code from
// before the two shared one launch routine. Each pins the current code to
// that reference; regenerate only when serving semantics change on
// purpose.
var updateGolden = flag.Bool("update", false, "rewrite the seed-equivalence goldens")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update on a known-good tree): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("results drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// seedGridConfig is one cell of the seed-equivalence grid: a policy-free,
// fault-free deployment that exercises batching, routing, the prefix cache
// and (optionally) the autoscaler. A zero profile prices every batch at
// zero, so batches complete at the instant they launch and one replica can
// host several in a single instant.
func seedGridConfig(profile llm.Profile, maxBatch int, autoscale bool, routing RoutingPolicy) Config {
	cfg := Config{
		Profile: profile, Replicas: 4, MaxBatch: maxBatch,
		MaxWait: 500 * time.Millisecond, Routing: routing,
		CacheEntries: 64, CacheTokens: 4096, Identity: IdentityContent,
	}
	if autoscale {
		cfg.Autoscale = Autoscale{Interval: 15 * time.Second, ColdStart: 5 * time.Second,
			UpUtil: 0.6, DownUtil: 0.3, Min: 1, Max: 4}
	}
	return cfg
}

// replayDigest hashes everything a ReplayResult reports.
func replayDigest(res ReplayResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d|%d", res.Completions, res.Stats, res.Batches, res.Makespan)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestReplaySeedEquivalence runs the traffic grid (pricing × arrival
// process × tenants × MaxBatch × autoscaler × routing) and compares each
// cell's ReplayResult digest with the golden the seed loop produced. The
// same cells check that attaching a flight recorder changes nothing and
// that the recorded stream validates.
func TestReplaySeedEquivalence(t *testing.T) {
	var b strings.Builder
	for _, profile := range []llm.Profile{noJitter, {Name: "free"}} {
		for _, kind := range []ArrivalKind{ArrivePoisson, ArriveBursty, ArriveDiurnal, "lockstep"} {
			for _, tenants := range []int{8, 32} {
				// Lockstep tenants all arrive at the same instants, more of
				// them than the replicas can take in one round of batches.
				reqs := testTrace(tenants, 20, 30*time.Second, 0)
				if kind != "lockstep" {
					reqs = GenerateTraffic(Traffic{Kind: kind, Tenants: tenants,
						Horizon: 20 * time.Minute, Seed: 5})
				}
				for _, mb := range []int{1, 4} {
					for _, as := range []bool{false, true} {
						for _, rt := range []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion} {
							cell := fmt.Sprintf("%s/%s/t%d/mb%d/as=%t/%s", profile.Name, kind, tenants, mb, as, rt)
							cfg := seedGridConfig(profile, mb, as, rt)
							res := Replay(cfg, reqs)
							rec := obs.NewRecorder()
							if obsd := ReplayObserved(cfg, reqs, rec); !reflect.DeepEqual(res, obsd) {
								t.Errorf("%s: recorder changed the replay result", cell)
							}
							if err := obs.Validate(rec.Events()); err != nil {
								t.Errorf("%s: recorded stream invalid: %v", cell, err)
							}
							fmt.Fprintf(&b, "%-49s reqs=%d batches=%d makespan=%d %s\n",
								cell, res.Stats.Requests, res.Batches, res.Makespan, replayDigest(res))
						}
					}
				}
			}
		}
	}
	checkGolden(t, "replay_seed.golden", b.String())
}
