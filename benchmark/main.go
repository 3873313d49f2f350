// Command benchmark is the repository benchmark. It runs fixed-work
// workloads of the embench simulator, measures host time and memory per
// round, checks every round's outputs against the first, and prints each
// metric by name with its unit. See README.md.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload episodes-scale --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --runs 10 --out A.jsonl   # every workload, each run in a child process
//	bash benchmark/run.sh -compare A.jsonl B.jsonl            # judge two sets of runs
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run's
// detail: its output digest and the metrics the JSON line leaves out.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "host seconds each run measures")
	traced := fs.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for a traced run's profiles")
	runs := fs.Int("runs", 1, "every-workload mode: runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "every-workload mode: append each run's record to this JSONL file")
	compare := fs.Bool("compare", false, "compare two JSONL files of run records: -compare A.jsonl B.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *runs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be positive and -trace 0 or 1")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files")
			return 2
		}
		err = compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout)
	case *name == "":
		err = runAll(*seed, *runs, *seconds, *traced, *traceDir, *out, stdout, stderr)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1, *traceDir, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// metricDef declares one reported metric. BENCHMARK.json repeats the
// end-to-end and per-layer declarations, with each end-to-end metric's
// bound; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on its JSON line, all
// on the host clock and all nonzero on every workload.
var endToEnd = []metricDef{
	{Name: "requests_per_s", Unit: "1/s", Better: "higher"},
	{Name: "alloc_kb_per_request", Unit: "KiB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// hostExtras are host-clock metrics an untraced run prints but leaves off
// its JSON line: episodes_per_s exists only where rounds run episodes, and
// the round tail follows the host's load more than the program's.
var hostExtras = []metricDef{
	{Name: "episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "round_wall_ms_p90", Unit: "ms", Better: "lower"},
}

// virtualMetrics are the virtual-clock metrics: what the simulated system
// reports, exact for a seed. Untraced runs print them; traced runs report
// them among the per-layer metrics.
var virtualMetrics = []metricDef{
	{Name: "task_success_rate", Unit: "share", Better: "higher"},
	{Name: "task_latency_s", Unit: "s", Better: "lower"},
	{Name: "plan_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "plan_latency_p99_s", Unit: "s", Better: "lower"},
	{Name: "e2e_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "e2e_latency_p99_s", Unit: "s", Better: "lower"},
	{Name: "slo_attainment", Unit: "share", Better: "higher"},
	{Name: "slo_capacity_rps", Unit: "1/s", Better: "higher"},
	{Name: "replica_seconds", Unit: "s", Better: "lower"},
	{Name: "comms.useful_msg_rate", Unit: "share", Better: "higher"},
	{Name: "llm.prompt_tokens_per_call", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hit_rate", Unit: "share", Better: "higher"},
	{Name: "serve.max_replica_share", Unit: "share", Better: "lower"},
	{Name: "serve.batch_occupancy", Unit: "count", Better: "higher"},
	{Name: "serve.queue_wait_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_p99_s", Unit: "s", Better: "lower"},
	{Name: "serve.evicted_tokens_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.retries_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.shed_timeout_share", Unit: "share", Better: "lower"},
	{Name: "serve.hedge_win_rate", Unit: "share", Better: "higher"},
	{Name: "serve.failed_batches", Unit: "count", Better: "lower"},
	{Name: "serve.downtime_share", Unit: "share", Better: "lower"},
	{Name: "serve.prefill_wait_share", Unit: "share", Better: "lower"},
	{Name: "serve.decode_wait_share", Unit: "share", Better: "lower"},
	{Name: "serve.handoff_ms_per_request", Unit: "ms", Better: "lower"},
	{Name: "serve.obs.events_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.obs.jsonl_bytes_per_event", Unit: "B", Better: "lower"},
}

// tracedMetrics are everything a traced run measures: every layer's share
// of CPU samples and allocated bytes, the probe and profile metrics, and
// the virtual-clock metrics. A metric that does not apply to a workload
// reads 0.
var tracedMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{Name: l + ".cpu_share", Unit: "share", Better: "lower"},
			metricDef{Name: l + ".alloc_share", Unit: "share", Better: "lower"})
	}
	for _, m := range envMethodNames {
		defs = append(defs, metricDef{Name: "env." + m + ".us_per_call", Unit: "us", Better: "lower"})
	}
	defs = append(defs, []metricDef{
		{Name: "env.build_belief.records_per_call", Unit: "count", Better: "lower"},
		{Name: "bench.memory_retrieve.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "serve.fleet.merge_wait_ms_per_round", Unit: "ms", Better: "lower"},
		{Name: "runner.gate_wait_ms_per_round", Unit: "ms", Better: "lower"},
		{Name: "serve.obs.emit_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "runtime.gc.cycles_per_round", Unit: "count", Better: "lower"},
		{Name: "trace_overhead", Unit: "share", Better: "lower"},
	}...)
	return append(defs, virtualMetrics...)
}()

// perLayer are the traced metrics a traced run reports on its JSON line:
// all but the times. A time there either applies to some workloads only,
// reading 0 on every run of the others, or is a virtual time, which reads
// the same on every run of a seed; neither is a host measurement. The
// traced run prints them beside the others.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, d := range tracedMetrics {
		switch d.Unit {
		case "s", "ms", "us", "ns":
		default:
			defs = append(defs, d)
		}
	}
	return defs
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result; its exported fields are the JSON line a run
// ends with.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	problems  []string
	digest    uint64
	rounds    int
	instances int
	// detail holds the metrics the run prints but leaves off its JSON
	// line, by name.
	detail map[string]float64
}

// newReport puts the declared metrics on the JSON line, a missing one as
// 0, and keeps every other produced metric as detail.
func newReport(defs []metricDef, values map[string]float64) report {
	r := report{Metrics: make(map[string]value, len(defs)), detail: make(map[string]float64)}
	for _, d := range defs {
		r.Metrics[d.Name] = value{Value: values[d.Name], Unit: d.Unit}
	}
	for name, v := range values {
		if _, ok := r.Metrics[name]; !ok {
			r.detail[name] = v
		}
	}
	return r
}

// plainRun is the untraced run behind the end-to-end metrics.
func plainRun(w workload, seed uint64, budget time.Duration) (report, error) {
	s, err := prepare(w, seed, nil)
	if err != nil {
		return report{}, err
	}
	t, err := s.measure(budget)
	if err != nil {
		return report{}, err
	}
	all := hostMetrics(s, t)
	for name, v := range s.virtual {
		all[name] = v
	}
	rep := newReport(endToEnd, all)
	rep.Attempted, rep.Failed = t.ops, t.failed
	rep.problems, rep.Correct = s.problems, len(s.problems) == 0
	rep.digest, rep.rounds, rep.instances = s.digest(), t.rounds, len(s.inst)
	return rep, nil
}

// detailLine is the line before a run's JSON line: its output digest and
// its detail metrics.
type detailLine struct {
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

const detailPrefix = "detail "

// runOne runs one workload and prints its metrics, ending with the detail
// and JSON lines. Failed output checks make it an error after printing.
func runOne(name string, seed uint64, seconds int, traced bool, traceDir string, stdout, stderr io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	var rep report
	if traced {
		rep, err = traceRun(w, seed, budget, fmt.Sprintf("%s/%s-seed%d", traceDir, name, seed))
	} else {
		rep, err = plainRun(w, seed, budget)
	}
	if err != nil {
		return err
	}
	for i, p := range rep.problems {
		if i == 5 {
			fmt.Fprintf(stderr, "check failed: %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "check failed:", p)
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %v: %d rounds over %d instances, digest %016x\n",
		name, seed, traced, rep.rounds, rep.instances, rep.digest)
	fmt.Fprintf(stdout, "%-40s %d\n%-40s %d\n", "ops", rep.Attempted, "ops_failed", rep.Failed)
	section := func(title string, defs []metricDef, values func(string) (float64, bool)) {
		fmt.Fprintln(stdout, title)
		sorted := append([]metricDef(nil), defs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, d := range sorted {
			if v, ok := values(d.Name); ok {
				fmt.Fprintf(stdout, "  %-38s %-14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	onLine := func(n string) (float64, bool) { v, ok := rep.Metrics[n]; return v.Value, ok }
	inDetail := func(n string) (float64, bool) { v, ok := rep.detail[n]; return v, ok }
	if traced {
		section("per-layer:", perLayer, onLine)
		section("per-layer, printed only:", tracedMetrics, inDetail)
	} else {
		section("end-to-end, host clock:", endToEnd, onLine)
		section("host clock, printed only:", hostExtras, inDetail)
		section("virtual clock, exact per seed:", virtualMetrics, inDetail)
	}
	dl, err := json.Marshal(detailLine{Digest: fmt.Sprintf("%016x", rep.digest), Metrics: rep.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, dl, line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d output checks failed", name, len(rep.problems))
	}
	return nil
}

// record is one run as the every-workload mode stores it for -compare.
type record struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Result   report     `json:"result"`
	Detail   detailLine `json:"detail"`
}

// runAll runs every workload, runs times each, every run in a fresh child
// process of this binary, and appends each run's record to out.
func runAll(seed uint64, runs, seconds, traced int, traceDir, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var f *os.File
	if out != "" {
		if f, err = os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			return err
		}
		defer f.Close()
	}
	var failed []string
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-trace-dir", traceDir)
			cmd.Stderr = stderr
			text, runErr := cmd.Output()
			stdout.Write(text)
			rec, err := parseRun(text)
			if err != nil || runErr != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d", w.name, s))
				continue
			}
			if f == nil {
				continue
			}
			rec.Workload, rec.Seed, rec.Trace = w.name, s, traced
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
				return err
			}
		}
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("runs failed: %v", failed)
	}
	return nil
}

// parseRun reads a single-workload run's output: its last two lines are
// the detail line and the JSON line.
func parseRun(out []byte) (record, error) {
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	var rec record
	if len(lines) < 2 {
		return rec, errors.New("run printed fewer than two lines")
	}
	d, ok := bytes.CutPrefix(lines[len(lines)-2], []byte(detailPrefix))
	if !ok {
		return rec, errors.New("run printed no detail line")
	}
	if err := json.Unmarshal(d, &rec.Detail); err != nil {
		return rec, err
	}
	return rec, json.Unmarshal(lines[len(lines)-1], &rec.Result)
}

// readRecords loads a JSONL file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no run records")
	}
	return recs, nil
}
