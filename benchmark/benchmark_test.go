package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"embench/internal/core"
	"embench/internal/multiagent"
	"embench/internal/rng"
	"embench/internal/systems"
	"embench/internal/world"
)

// TestWorkloadsSmoke runs one instance of every workload for two rounds:
// the outputs pass their checks, repeat exactly, and report only declared
// virtual metrics.
func TestWorkloadsSmoke(t *testing.T) {
	declared := make(map[string]bool)
	for _, d := range virtualMetrics {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(instanceSeed(1, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			first, err := r()
			if err != nil {
				t.Fatal(err)
			}
			if err := first.check(); err != nil {
				t.Fatal(err)
			}
			if first.ops() < 1 || first.requests() < 1 {
				t.Fatalf("ops %d, requests %d", first.ops(), first.requests())
			}
			for name := range first.virtual() {
				if !declared[name] {
					t.Errorf("virtual metric %q is not declared", name)
				}
			}
			second, err := r()
			if err != nil {
				t.Fatal(err)
			}
			if digestOf(first) != digestOf(second) {
				t.Fatal("a repeated round produced different outputs")
			}
		})
	}
}

// TestTracedDigestsMatch pins that the probes leave the simulation alone
// on the workloads they instrument; fleet-shared drives the Domain probe
// from concurrent episodes.
func TestTracedDigestsMatch(t *testing.T) {
	for _, name := range []string{"episodes-scale", "fleet-shared", "replay-faults"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		digest := func(p *probes) uint64 {
			r, err := w.setup(instanceSeed(1, 0), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r()
			if err != nil {
				t.Fatal(err)
			}
			return digestOf(res)
		}
		p := &probes{}
		if digest(nil) != digest(p) {
			t.Errorf("%s: traced outputs differ from untraced", name)
		}
		if p.env.calls[observe].Load() == 0 && p.sink.events == 0 {
			t.Errorf("%s: no probe fired", name)
		}
	}
}

// TestDomainWrapperTransparent runs every suite workload with and without
// the timing Domain wrapper: episode metrics and traces must be equal.
func TestDomainWrapperTransparent(t *testing.T) {
	for _, name := range systems.SuiteNames {
		w, ok := systems.Get(name)
		if !ok {
			t.Fatalf("suite workload %s missing", name)
		}
		p := &probes{}
		plain := w.Run(world.Easy, 0, multiagent.Options{Seed: 3})
		timed := p.env.wrapWorkload(w).Run(world.Easy, 0, multiagent.Options{Seed: 3})
		if !reflect.DeepEqual(plain, timed) {
			t.Errorf("%s: wrapped domain changed the episode", name)
		}
		if p.env.calls[observe].Load() == 0 || p.env.calls[tick].Load() == 0 {
			t.Errorf("%s: wrapper saw no Observe or Tick calls", name)
		}
	}
}

// TestWrapKeepsInterfaces checks that a wrapped domain implements exactly
// the optional interfaces of the domain it wraps.
func TestWrapKeepsInterfaces(t *testing.T) {
	p := &envProbe{}
	for _, name := range systems.SuiteNames {
		w, _ := systems.Get(name)
		d := w.NewDomain(2, world.Easy, rng.New(1))
		wd := p.wrap(d)
		for _, probe := range []func(core.Domain) bool{
			func(d core.Domain) bool { _, ok := d.(core.CentralDomain); return ok },
			func(d core.Domain) bool { _, ok := d.(core.Claimer); return ok },
			func(d core.Domain) bool { _, ok := d.(core.Corrector); return ok },
		} {
			if probe(d) != probe(wd) {
				t.Errorf("%s: wrapper changed the domain's interface set", name)
			}
		}
	}
}

// TestSeedChangesInputs checks that the seed, and the instance index under
// it, pick the inputs, and that equal seeds give equal inputs.
func TestSeedChangesInputs(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, seed := range []uint64{1, 2} {
		for k := 0; k < 16; k++ {
			s := instanceSeed(seed, k)
			if seen[s] {
				t.Fatalf("instance seed %d repeats", s)
			}
			seen[s] = true
		}
	}
	w, err := findWorkload("replay-disagg")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed uint64) uint64 {
		r, err := w.setup(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r()
		if err != nil {
			t.Fatal(err)
		}
		return digestOf(res)
	}
	if digest(instanceSeed(1, 0)) != digest(instanceSeed(1, 0)) {
		t.Fatal("equal seeds gave different outputs")
	}
	if digest(instanceSeed(1, 0)) == digest(instanceSeed(2, 0)) {
		t.Fatal("different seeds gave equal outputs")
	}
}

// TestRunOutput runs one short untraced run through the command line and
// reads back its last two lines: the JSON line holds exactly the
// end-to-end metrics, all nonzero, and the detail line the rest.
func TestRunOutput(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "replay-disagg", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errs); code != 0 {
		t.Fatalf("exit code %d: %s", code, errs.String())
	}
	rec, err := parseRun(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Result
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("JSON line %+v", r)
	}
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s: %+v", d.Name, v)
		}
	}
	if len(rec.Detail.Digest) != 16 || rec.Detail.Metrics["e2e_latency_p99_s"] <= 0 || rec.Detail.Metrics["round_wall_ms_p90"] <= 0 {
		t.Errorf("detail line %+v", rec.Detail)
	}
}

// cannedTraces is `go tool pprof -traces` output: a header, label lines,
// an inline frame and a value wider than its ten-column field.
const cannedTraces = `File: benchmark
Type: cpu
Duration: 10s, Total samples = 1.27s (12.70%)
-----------+-------------------------------------------------------
     phase:  round
  10000000ns   runtime.mallocgc
             embench/internal/modules/memory.(*Store).Retrieve
             embench/internal/core.(*Agent).Step
             main.episodesScale.func1
-----------+-------------------------------------------------------
     phase:  round
      10ms   embench/internal/serve.(*FleetClient).submit
             embench/internal/runner.RunFleet.func1
-----------+-------------------------------------------------------
     bytes:  512kB
 1234567890ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   embench/internal/serve.(*Endpoint).emitSubmit (inline)
             embench/internal/serve.replayOn
-----------+-------------------------------------------------------
       5ms   runtime.mapassign
             embench/internal/serve/obs.Validate
             main.replay.check
             main.(*session).measure
-----------+-------------------------------------------------------
`

func TestParseTracesAndAttribute(t *testing.T) {
	stacks, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 5 {
		t.Fatalf("parsed %d stacks, want 5", len(stacks))
	}
	wantValues := []float64{1e7, 1e7, 1234567890, 2e7, 5e6}
	for i, s := range stacks {
		if s.value != wantValues[i] {
			t.Errorf("stack %d value %v, want %v", i, s.value, wantValues[i])
		}
	}
	if got := stacks[3].frames[0]; got != "embench/internal/serve.(*Endpoint).emitSubmit" {
		t.Errorf("inline frame parsed as %q", got)
	}
	by, total := attribute(stacks)
	want := map[string]float64{"memory": 1e7, "serve.fleet": 1e7, "runtime.gc": 1234567890, "serve.obs": 2e7, "harness": 5e6}
	if !reflect.DeepEqual(by, want) || total != 1e7+1e7+1234567890+2e7+5e6 {
		t.Errorf("attribution %v (total %v), want %v", by, total, want)
	}
	if got := waitIn(stacks, "embench/internal/serve.(*FleetClient).submit"); got != 1e7 {
		t.Errorf("wait in submit %v, want 1e7", got)
	}
	if _, err := parseTraces("-----------+---\n      10xs   f\n"); err == nil {
		t.Error("a value with an unknown unit parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"embench/internal/env/gridhouse.(*House).Observe":  "env",
		"embench/internal/world.SortedKeys[...]":           "env",
		"embench/internal/path/astar.Plan":                 "env",
		"embench/internal/modules/memory.(*Store).Add":     "memory",
		"embench/internal/modules/comms.Novel":             "comms",
		"embench/internal/modules/planning.Plan":           "core",
		"embench/internal/multiagent.deliver":              "multiagent",
		"embench/internal/prompt.Fit":                      "llm",
		"embench/internal/metrics.Summarize":               "trace",
		"embench/internal/runner.activationGate.Acquire":   "runner",
		"embench/internal/serve.replayOn.func1":            "serve",
		"embench/internal/serve.(*ShardedFleet).Client":    "serve.fleet",
		"embench/internal/serve.(*Fleet).dispatch":         "serve.fleet",
		"embench/internal/serve.stageSink.Event":           "serve.obs",
		"embench/internal/serve/obs.(*Recorder).Event":     "serve.obs",
		"embench/internal/serve.(*Endpoint).emitComplete":  "serve.obs",
		"main.timedDomain.Observe":                         "harness",
		"runtime/pprof.(*profileBuilder).build":            "harness",
		"runtime.mallocgc":                                 "",
		"embench/internal/serve.(*Endpoint).Serve":         "serve",
		"embench/internal/modules/execution.(*Exec).Apply": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartilesMatchPython pins statistics.quantiles(xs, n=4) values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 5, 8}, [3]float64{3, 5, 8}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "requests_per_s", Better: "higher", Bound: 0.1}
	seeds := func(n int, base float64, step float64) map[uint64]float64 {
		m := make(map[uint64]float64)
		for s := 0; s < n; s++ {
			m[uint64(s)] = base + step*float64(s%3)
		}
		return m
	}
	runs := func(base float64, step float64) map[uint64]float64 { return seeds(10, base, step) }
	for _, c := range []struct {
		name string
		a, b map[uint64]float64
		want string
	}{
		{"same", runs(100, 1), runs(101, 1), "same"},
		{"worse", runs(100, 1), runs(80, 1), "worse"},
		{"better", runs(100, 1), runs(120, 1), "better"},
		{"unresolved", runs(100, 30), runs(95, 30), "unresolved"},
		{"unresolved but every run better", runs(100, 30), runs(300, 30), "better"},
		{"better on too few pairs", seeds(3, 100, 1), seeds(3, 120, 1), "same"},
	} {
		if got := judge(d, c.a, c.b).call; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads with the same reasons, the same metrics with the same units
// and directions, and end-to-end bounds within the allowed range.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) ||
		!reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("command %q, paths %q, run_seconds %d", spec.Command, spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(spec.EndToEnd), endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's")
	}
}
