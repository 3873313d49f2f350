package bench

import (
	"testing"

	"embench/internal/serve"
)

// fig10TestConfig keeps the scale experiment test-sized: the ladder's toe
// plus one past-activation-threshold size so the gated runner path runs.
func fig10TestConfig() Config {
	return Config{Seed: 1, FleetSizes: []int{8, 72}, FleetShards: []int{1, 2}}
}

func TestFig10Shapes(t *testing.T) {
	cfg := fig10TestConfig()
	rep := Fig10(cfg)
	wantMerge := len(cfg.FleetSizes) * len(cfg.FleetShards) * len(fig10Routings)
	if len(rep.Merge) != wantMerge {
		t.Fatalf("merge rows = %d, want %d", len(rep.Merge), wantMerge)
	}
	if len(rep.Closed) != len(cfg.FleetSizes)*len(cfg.FleetShards) {
		t.Fatalf("closed rows = %d, want %d", len(rep.Closed), len(cfg.FleetSizes)*len(cfg.FleetShards))
	}
	for _, r := range rep.Merge {
		if r.Requests == 0 || r.WallMS <= 0 || r.AdmitPerSec <= 0 {
			t.Fatalf("degenerate merge row: %+v", r)
		}
	}
	for _, r := range rep.Closed {
		if r.SuccessRate <= 0 || r.WallMS <= 0 {
			t.Fatalf("degenerate closed-loop row: %+v", r)
		}
	}
	out := RenderFig10(rep)
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	m := Fig10Metrics(rep)
	if _, ok := m["merge72_shards1_least-loaded_admit_per_sec"]; !ok {
		t.Fatalf("metrics missing admission-rate keys: %v", m)
	}
}

// TestFig10ServingStatsDeterministic: wall times vary run to run by
// nature, but every simulated quantity — admissions, queue waits, cache
// hits, closed-loop outcomes — must be identical across reruns.
func TestFig10ServingStatsDeterministic(t *testing.T) {
	cfg := fig10TestConfig()
	a, b := Fig10(cfg), Fig10(cfg)
	for i := range a.Merge {
		x, y := a.Merge[i], b.Merge[i]
		if x.Requests != y.Requests || x.MeanQueueWait != y.MeanQueueWait ||
			x.CacheHitRate != y.CacheHitRate {
			t.Fatalf("merge row %d serving stats diverged: %+v vs %+v", i, x, y)
		}
	}
	for i := range a.Closed {
		x, y := a.Closed[i], b.Closed[i]
		if x.SuccessRate != y.SuccessRate || x.MeanQueueWait != y.MeanQueueWait ||
			x.CacheHitRate != y.CacheHitRate {
			t.Fatalf("closed row %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

// TestFig10ShardingRelievesContention pins the qualitative claim sharding
// exists for: at the largest swept size, splitting the fleet across
// shards must cut the mean queue wait (independent endpoints, smaller
// merges, no cross-shard contention).
func TestFig10ShardingRelievesContention(t *testing.T) {
	cfg := fig10TestConfig()
	rep := Fig10(cfg)
	n := cfg.FleetSizes[len(cfg.FleetSizes)-1]
	var one, many *Fig10MergeRow
	for i := range rep.Merge {
		r := &rep.Merge[i]
		if r.Episodes != n || r.Routing != serve.RouteLeastLoaded {
			continue
		}
		switch r.Shards {
		case 1:
			one = r
		default:
			many = r
		}
	}
	if one == nil || many == nil {
		t.Fatal("missing shard rows at the largest size")
	}
	if many.MeanQueueWait >= one.MeanQueueWait {
		t.Fatalf("sharding did not relieve queueing: 1 shard %v, %d shards %v",
			one.MeanQueueWait, many.Shards, many.MeanQueueWait)
	}
}
