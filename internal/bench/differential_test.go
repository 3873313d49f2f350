package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens under testdata/ were generated from the seed tree (before the
// token-budget cache rewrite) with `go test -run SeedByteIdentical -update`.
// They pin the acceptance criterion of the cache-identity PR: under the
// DEFAULT serving configuration (entry-count capacity, shape identity, no
// token budget) the figure outputs stay byte-identical — the new capacity
// model is strictly opt-in. Regenerate them only when a default is changed
// on purpose.
var updateGoldens = flag.Bool("update", false, "rewrite the seed differential goldens")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Errorf("%s drifted from the seed golden.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestFig8SeedByteIdentical(t *testing.T) {
	rep := Fig8(Config{Episodes: 2, Seed: 1, Parallelism: 1})
	checkGolden(t, "fig8_seed.golden", RenderFig8(rep))
}

func TestFig9SeedByteIdentical(t *testing.T) {
	rep := Fig9(fig9TestConfig())
	checkGolden(t, "fig9_seed.golden", RenderFig9(rep))
}

// renderFig10Deterministic renders only fig10's simulation-derived columns:
// wall times (and the wall-time-only before/after panel) vary run to run by
// design, so byte-identity is pinned on the serving statistics.
func renderFig10Deterministic(rep Fig10Report) string {
	var b strings.Builder
	b.WriteString("fig10a deterministic columns\n")
	for _, r := range rep.Merge {
		fmt.Fprintf(&b, "%8d %7d %-16s %9d %12d %.6f\n",
			r.Episodes, r.Shards, r.Routing, r.Requests,
			r.MeanQueueWait.Nanoseconds(), r.CacheHitRate)
	}
	b.WriteString("fig10c deterministic columns\n")
	for _, r := range rep.Closed {
		fmt.Fprintf(&b, "%8d %7d %.4f %12d %.6f\n",
			r.Episodes, r.Shards, r.SuccessRate,
			r.MeanQueueWait.Nanoseconds(), r.CacheHitRate)
	}
	return b.String()
}

func TestFig10SeedByteIdentical(t *testing.T) {
	rep := Fig10(Config{
		Episodes: 2, Seed: 7, Parallelism: 1,
		FleetSizes: []int{16, 64}, FleetShards: []int{1, 2},
	})
	checkGolden(t, "fig10_seed.golden", renderFig10Deterministic(rep))
}
