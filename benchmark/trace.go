package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"embench/internal/modules/memory"
)

// layers are the program's modules as the traced run attributes host time
// and allocation to them. harness is the benchmark's own code (probes,
// digests, checks) and its profilers; runtime.gc is every sample with no
// program frame.
var layers = []string{
	"env", "memory", "comms", "core", "multiagent", "llm", "trace",
	"runner", "serve", "serve.fleet", "serve.obs", "runtime.gc", "harness",
}

// packageLayer maps a package below embench/internal to its layer.
var packageLayer = map[string]string{
	"world": "env", "geom": "env", "path/astar": "env", "path/rrt": "env",
	"modules/memory":     "memory",
	"modules/comms":      "comms",
	"core":               "core",
	"modules/planning":   "core",
	"modules/reflection": "core",
	"modules/execution":  "core",
	"modules/sensing":    "core",
	"systems":            "core",
	"simclock":           "core",
	"rng":                "core",
	"multiagent":         "multiagent",
	"llm":                "llm", "prompt": "llm", "tokenizer": "llm",
	"trace": "trace", "metrics": "trace",
	"runner":    "runner",
	"serve":     "serve",
	"serve/obs": "serve.obs",
}

// layerOf maps a function name as pprof prints it to its layer, or ""
// when the function belongs to neither the program nor the harness.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "runtime/pprof.") {
		return "harness"
	}
	rest, ok := strings.CutPrefix(fn, "embench/internal/")
	if !ok {
		return ""
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(rest, '/') + 1
	dot := strings.IndexByte(rest[slash:], '.')
	if dot < 0 {
		return ""
	}
	pkg, sym := rest[:slash+dot], rest[slash+dot+1:]
	if strings.HasPrefix(pkg, "env/") {
		return "env"
	}
	layer := packageLayer[pkg]
	if layer == "serve" {
		switch {
		case strings.HasPrefix(sym, "(*Fleet)."), strings.HasPrefix(sym, "(*FleetClient)."),
			strings.HasPrefix(sym, "(*ShardedFleet)."):
			return "serve.fleet"
		case strings.HasPrefix(sym, "(*Endpoint).emit"), strings.HasPrefix(sym, "stageSink."):
			return "serve.obs"
		}
	}
	if layer == "" {
		return "harness"
	}
	return layer
}

// stack is one sample of a `go tool pprof -traces` listing: its value in
// the listing's unit and its function names, leaf first.
type stack struct {
	value  float64
	frames []string
}

// parseTraces reads a `go tool pprof -traces` listing: a header, then
// samples between separator lines. A sample is an optional block of label
// lines ("key:  values") and then its frames, one a line; the first frame
// line starts with the sample's value, the others with 13 spaces.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	var cur stack
	inSamples := false
	flush := func() {
		if len(cur.frames) > 0 {
			out = append(out, cur)
		}
		cur = stack{}
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		name := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if !inSamples || name == "" {
			continue
		}
		if !strings.HasPrefix(line, "             ") {
			head, rest, _ := strings.Cut(name, " ")
			if strings.HasSuffix(head, ":") {
				continue // a label line
			}
			if len(cur.frames) > 0 {
				return nil, fmt.Errorf("pprof traces: second value %q in one sample", head)
			}
			v, err := parseValue(head)
			if err != nil {
				return nil, err
			}
			cur.value, name = v, strings.TrimSpace(rest)
		}
		cur.frames = append(cur.frames, name)
	}
	flush()
	return out, sc.Err()
}

// unitScale converts pprof's printed units to nanoseconds or bytes.
var unitScale = map[string]float64{
	"": 1, "ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

func parseValue(s string) (float64, error) {
	i := strings.LastIndexAny(s, "0123456789") + 1
	v, err := strconv.ParseFloat(s[:i], 64)
	scale, ok := unitScale[s[i:]]
	if err != nil || !ok {
		return 0, fmt.Errorf("pprof traces: bad value %q", s)
	}
	return v * scale, nil
}

// attribute sums sample values per layer. A sample under the harness's
// output checks or digests, which run between the timed rounds, is
// harness work even where it runs program code such as obs.Validate.
// Any other sample goes to the innermost frame that belongs to the
// program or the harness, and a sample with neither is runtime.gc.
func attribute(stacks []stack) (by map[string]float64, total float64) {
	by = make(map[string]float64)
	for _, s := range stacks {
		layer := "runtime.gc"
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		for _, fn := range s.frames {
			if fn == "main.digestOf" || strings.HasPrefix(fn, "main.") && strings.HasSuffix(fn, ".check") {
				layer = "harness"
				break
			}
		}
		by[layer] += s.value
		total += s.value
	}
	return by, total
}

// waitIn sums the values of samples with a frame named fn.
func waitIn(stacks []stack, fn string) float64 {
	sum := 0.0
	for _, s := range stacks {
		for _, f := range s.frames {
			if f == fn {
				sum += s.value
				break
			}
		}
	}
	return sum
}

// pprofTraces runs `go tool pprof -traces` with args and parses its listing.
func pprofTraces(args ...string) ([]stack, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return parseTraces(string(out))
}

// profiles are the traced phase's profile files.
type profiles struct {
	dir string
	cpu *os.File
}

func startProfiles(dir string) (*profiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiles{dir: dir}
	if err := p.writeHeap("heap0.pprof"); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	runtime.SetBlockProfileRate(1)
	return p, nil
}

// stop ends profiling and writes the heap and block profiles.
func (p *profiles) stop() error {
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	if err := p.cpu.Close(); err != nil {
		return err
	}
	if err := p.writeHeap("heap1.pprof"); err != nil {
		return err
	}
	return p.write("block.pprof", pprof.Lookup("block"))
}

// writeHeap writes the heap profile after a GC, which brings its
// cumulative allocation counts up to date.
func (p *profiles) writeHeap(name string) error {
	runtime.GC()
	return p.write(name, pprof.Lookup("heap"))
}

func (p *profiles) write(name string, prof *pprof.Profile) error {
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics reads the profiles back through pprof: each layer's share
// of the traced phase's CPU samples and allocated bytes, and the
// block-profile waits in the fleet merge and the runner's activation gate,
// summed over goroutines, per round. The GC's background workers carry no
// program frame, so their samples count as runtime.gc; the digests and
// checks between rounds count as harness.
func (p *profiles) layerMetrics(rounds int) (map[string]float64, error) {
	path := func(name string) string { return filepath.Join(p.dir, name) }
	cpu, err := pprofTraces("-unit=ns", path("cpu.pprof"))
	if err != nil {
		return nil, err
	}
	alloc, err := pprofTraces("-sample_index=alloc_space", "-unit=B", "-base", path("heap0.pprof"), path("heap1.pprof"))
	if err != nil {
		return nil, err
	}
	block, err := pprofTraces("-sample_index=delay", "-unit=ns", path("block.pprof"))
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	cpuBy, cpuTotal := attribute(cpu)
	allocBy, allocTotal := attribute(alloc)
	for _, l := range layers {
		m[l+".cpu_share"] = ratio(cpuBy[l], cpuTotal)
		m[l+".alloc_share"] = ratio(allocBy[l], allocTotal)
	}
	perRound := float64(rounds) * float64(time.Millisecond)
	m["serve.fleet.merge_wait_ms_per_round"] = waitIn(block, "embench/internal/serve.(*FleetClient).submit") / perRound
	m["runner.gate_wait_ms_per_round"] = waitIn(block, "embench/internal/runner.activationGate.Acquire") / perRound
	return m, nil
}

// retrieveBytesPerOp measures the heap bytes one memory.Store.Retrieve
// allocates over a full 32-step window of 16 records a step, the suite's
// default window.
func retrieveBytesPerOp() float64 {
	s := memory.NewStore(32)
	const steps, perStep = 64, 16
	for step := 0; step < steps; step++ {
		for k := 0; k < perStep; k++ {
			s.Add(memory.Record{Step: step, Key: "obj:" + strconv.Itoa(k), Payload: step, Tokens: 12})
		}
	}
	const ops = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		sinkRetrieval = s.Retrieve(steps - 1)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / ops
}

// sinkRetrieval keeps the measured Retrieve calls from being optimized away.
var sinkRetrieval memory.Retrieval

// traceRun is the traced run. Half the budget measures the workload
// untraced; the other half measures it with the probes installed and the
// CPU, heap and block profilers on, so both phases have as many rounds. Per-layer metrics come from the probes, the
// profiles and the virtual-clock outputs; trace_overhead compares the two
// phases' request rates.
func traceRun(w workload, seed uint64, budget time.Duration, dir string) (report, error) {
	plain, err := prepare(w, seed, nil)
	if err != nil {
		return report{}, err
	}
	pt, err := plain.measure(budget / 2)
	if err != nil {
		return report{}, err
	}
	plainRate, plainDigest := hostMetrics(plain, pt)["requests_per_s"], plain.digest()
	// Keep only the untraced digests, so the two set-ups never hold their
	// inputs at once.
	plainDigests := make([]uint64, len(plain.inst))
	for k, in := range plain.inst {
		plainDigests[k] = in.digest
	}
	plain.inst = nil

	p := &probes{}
	traced, err := prepare(w, seed, p)
	if err != nil {
		return report{}, err
	}
	for k, in := range traced.inst {
		if in.digest != plainDigests[k] {
			traced.problems = append(traced.problems, fmt.Sprintf("instance %d: traced digest %016x differs from the untraced %016x", k, in.digest, plainDigests[k]))
		}
	}
	p.reset()
	prof, err := startProfiles(dir)
	if err != nil {
		return report{}, err
	}
	tt, err := traced.measure(budget - budget/2)
	if stopErr := prof.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return report{}, err
	}
	m, err := prof.layerMetrics(tt.rounds)
	if err != nil {
		return report{}, err
	}

	for i, name := range envMethodNames {
		m["env."+name+".us_per_call"] = ratio(float64(p.env.ns[i].Load())/1e3, float64(p.env.calls[i].Load()))
	}
	m["env.build_belief.records_per_call"] = ratio(float64(p.env.records.Load()), float64(p.env.calls[buildBelief].Load()))
	m["serve.obs.emit_ns_per_event"] = ratio(float64(p.sink.ns), float64(p.sink.events))
	m["runtime.gc.cycles_per_round"] = float64(pt.gcCycles) / float64(pt.rounds)
	m["bench.memory_retrieve.bytes_per_op"] = retrieveBytesPerOp()
	m["trace_overhead"] = 1 - hostMetrics(traced, tt)["requests_per_s"]/plainRate
	for k, v := range traced.virtual {
		m[k] = v
	}

	rep := newReport(perLayer, m)
	rep.Attempted, rep.Failed = pt.ops+tt.ops, pt.failed+tt.failed
	rep.problems = append(plain.problems, traced.problems...)
	rep.Correct = len(rep.problems) == 0
	rep.digest, rep.rounds, rep.instances = plainDigest, pt.rounds+tt.rounds, len(traced.inst)
	return rep, nil
}
