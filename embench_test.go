package embench

import (
	"strings"
	"testing"
	"time"

	"embench/internal/serve"
)

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 14 {
		t.Fatalf("workloads = %d, want 14", len(ws))
	}
	if ws[0] != "EmbodiedGPT" || ws[13] != "HMAS" {
		t.Fatalf("unexpected ordering: %v", ws)
	}
}

func TestParseDifficulty(t *testing.T) {
	for _, s := range []string{"easy", "Medium", "HARD", ""} {
		if _, err := ParseDifficulty(s); err != nil {
			t.Errorf("ParseDifficulty(%q) = %v", s, err)
		}
	}
	if _, err := ParseDifficulty("impossible"); err == nil {
		t.Fatal("bad difficulty should error")
	}
}

func TestRun(t *testing.T) {
	out, err := Run("JARVIS-1", "easy", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Episode.Steps == 0 || out.Episode.SimDuration == 0 {
		t.Fatalf("empty episode: %+v", out.Episode)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("NotASystem", "easy", 0, 1); err == nil {
		t.Fatal("unknown workload should error")
	}
	if _, err := Run("CoELA", "nope", 0, 1); err == nil {
		t.Fatal("bad difficulty should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := Run("CMAS", "easy", 2, 42)
	b, _ := Run("CMAS", "easy", 2, 42)
	if a.Episode.SimDuration != b.Episode.SimDuration || a.Episode.Steps != b.Episode.Steps {
		t.Fatal("same seed should reproduce the episode")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{"calibrate", "fig10", "fig11", "fig12", "fig13", "fig14", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "opts", "table1", "table2"}
	if len(exps) != len(want) {
		t.Fatalf("experiments = %v", exps)
	}
	for i, e := range want {
		if exps[i] != e {
			t.Fatalf("experiments[%d] = %s, want %s", i, exps[i], e)
		}
	}
}

func TestExperimentTables(t *testing.T) {
	t1, err := Experiment("table1", 1, 1)
	if err != nil || !strings.Contains(t1, "RT-2") {
		t.Fatalf("table1: %v", err)
	}
	t2, err := Experiment("table2", 1, 1)
	if err != nil || !strings.Contains(t2, "CoELA") {
		t.Fatalf("table2: %v", err)
	}
}

func TestExperimentFig6Small(t *testing.T) {
	out, err := Experiment("fig6", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "token growth") {
		t.Fatalf("fig6 output unexpected:\n%s", out)
	}
}

func TestExperimentUnknown(t *testing.T) {
	if _, err := Experiment("fig99", 1, 1); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestExperimentFig12InvalidConfig pins the validation surface the CLI
// leans on: bad fig12 axis values must error out of ExperimentFull with a
// clear message, never fall back to a default silently.
func TestExperimentFig12InvalidConfig(t *testing.T) {
	base := ExperimentConfig{Episodes: 1, Seed: 1}
	for name, cfg := range map[string]ExperimentConfig{
		"bad arrival":    {Episodes: 1, Seed: 1, Arrivals: []string{"poisson", "lumpy"}},
		"zero tenants":   {Episodes: 1, Seed: 1, Tenants: []int{8, 0}},
		"neg tenants":    {Episodes: 1, Seed: 1, Tenants: []int{-3}},
		"negative slo":   {Episodes: 1, Seed: 1, SLO: -time.Second},
		"bad autoscale":  {Episodes: 1, Seed: 1, Autoscale: "up=2"},
		"autoscale typo": {Episodes: 1, Seed: 1, Autoscale: "interval=abc"},
	} {
		if _, err := ExperimentFull("fig12", cfg); err == nil {
			t.Errorf("%s: ExperimentFull accepted %+v", name, cfg)
		}
	}
	// The valid spellings still run: restricted axes keep the test cheap.
	base.Arrivals = []string{"bursty"}
	base.Tenants = []int{4}
	base.SLO = 45 * time.Second
	base.Autoscale = "interval=20s,cold=5s,min=1"
	res, err := ExperimentFull("fig12", base)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Report; !strings.Contains(out, "bursty") || !strings.Contains(out, "autoscaled") {
		t.Fatalf("fig12 output unexpected:\n%s", out)
	}
}

// TestExperimentRecordKeys: a perf record's experiment name and axis are
// canonical, so one configuration is one trajectory series however it was
// spelled — any case of the name, any order of an autoscale spec's keys.
func TestExperimentRecordKeys(t *testing.T) {
	res, err := ExperimentFull("FIG13", ExperimentConfig{Episodes: 1, Seed: 1})
	if err != nil || res.Name != "fig13" {
		t.Fatalf("ExperimentFull(FIG13) = name %q, %v; want fig13", res.Name, err)
	}
	axis := func(autoscale string) string {
		t.Helper()
		res, err := ExperimentFull("fig12", ExperimentConfig{
			Episodes: 1, Seed: 1, Arrivals: []string{"bursty"}, Tenants: []int{4}, Autoscale: autoscale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Axis
	}
	a, b := axis("interval=15s,cold=10s"), axis(" cold=10s , interval=15s")
	if a != b {
		t.Errorf("one autoscale policy, two axes: %q vs %q", a, b)
	}
	if want := "arrivals=bursty;tenants=4;slo=1m0s;autoscale=default"; axis("") != want {
		t.Errorf("default autoscale axis = %q, want %q", axis(""), want)
	}
}

// TestParseHandoffSurface pins the -serve-handoff parsing surface the CLI
// leans on: empty/"off" mean a free handoff, valid specs round-trip, and
// malformed specs error instead of silently pricing the transfer at zero.
func TestParseHandoffSurface(t *testing.T) {
	for _, s := range []string{"", "off", "  off  "} {
		h, err := ParseHandoff(s)
		if err != nil || h != (HandoffCost{}) {
			t.Errorf("ParseHandoff(%q) = %+v, %v; want free handoff", s, h, err)
		}
	}
	h, err := ParseHandoff("lat=40ms,rate=200000")
	if err != nil || h.Latency != 40*time.Millisecond || h.TokensPerSec != 200000 {
		t.Fatalf("ParseHandoff(valid) = %+v, %v", h, err)
	}
	for _, s := range []string{"lat=-1s", "rate=-5", "lat=abc", "bw=9", "lat"} {
		if _, err := ParseHandoff(s); err == nil {
			t.Errorf("ParseHandoff(%q) accepted a malformed spec", s)
		}
	}
}

// TestServeConfigDisaggValidation pins the validation the CLI's
// -serve-prefill-*/-serve-decode-* flags run through (main.go calls
// ServeConfig.Validate before building an endpoint): half-configured or
// negative pool setups must be rejected with an error, never defaulted.
func TestServeConfigDisaggValidation(t *testing.T) {
	ok := ServeConfig{
		Prefill: serve.PoolConfig{Replicas: 2, MaxBatch: 4},
		Decode:  serve.PoolConfig{Replicas: 2, MaxBatch: 4},
		Handoff: HandoffCost{Latency: 10 * time.Millisecond, TokensPerSec: 1e5},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid disaggregated config rejected: %v", err)
	}
	for name, sc := range map[string]ServeConfig{
		"prefill only":         {Prefill: serve.PoolConfig{Replicas: 2}},
		"decode only":          {Decode: serve.PoolConfig{Replicas: 2}},
		"pools plus mono":      {Replicas: 2, Prefill: serve.PoolConfig{Replicas: 1}, Decode: serve.PoolConfig{Replicas: 1}},
		"negative prefill":     {Prefill: serve.PoolConfig{Replicas: -1}, Decode: serve.PoolConfig{Replicas: 2}},
		"negative decode wait": {Prefill: serve.PoolConfig{Replicas: 1}, Decode: serve.PoolConfig{Replicas: 1, MaxWait: -time.Second}},
		"negative handoff":     {Prefill: serve.PoolConfig{Replicas: 1}, Decode: serve.PoolConfig{Replicas: 1}, Handoff: HandoffCost{Latency: -time.Millisecond}},
	} {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sc)
		}
	}
}
