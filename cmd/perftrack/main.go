// Command perftrack appends benchmark wall-time records to a trajectory
// file and flags regressions against the previous record — the
// machine-readable perf history the ROADMAP's perf-trajectory item asks
// for.
//
// Usage:
//
//	embench -exp fig9 -bench-json BENCH_fleet.json
//	perftrack -in BENCH_fleet.json -history PERF_TRAJECTORY.jsonl -label "$GITHUB_SHA"
//
// Each invocation appends ONE line of JSON to the history file:
// {label, entries: [{experiment, episodes, procs, wall_ms}...]}. Before
// appending, every experiment's wall time is compared to its baseline —
// the FASTEST of the last -baseline-window prior records for the same run
// configuration, which absorbs single-run scheduler noise (a noisy slow
// record never becomes the bar to beat); a ratio above -warn-ratio prints
// a warning (and, with -fail-on-regress, exits nonzero). The file is
// append-only JSONL so PRs accumulate a comparable series; commit it to
// keep the series across machines, or let CI keep an ephemeral one per
// run.
//
// With -gobench instead of -in, perftrack reads repeated Go benchmark
// samples and records each benchmark's median and quartiles of ns/op, B/op
// and allocs/op:
//
//	go test -run '^$' -bench 'Fig7RegenSequential$' -benchtime 3x -count 5 -benchmem ./internal/bench > fig7.txt
//	perftrack -gobench fig7.txt -history PERF_TRAJECTORY.jsonl -label "$GITHUB_SHA" -fail-on-regress
//
// A benchmark whose median B/op exceeds the median of its most recent
// prior record by more than 1.25x is flagged as a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"embench/internal/benchjson"
)

func main() {
	var (
		in      = flag.String("in", "", "bench JSON written by embench -bench-json (this or -gobench is required)")
		gobench = flag.String("gobench", "", "output of go test -bench -count=N -benchmem to summarize instead of -in")
		history = flag.String("history", "PERF_TRAJECTORY.jsonl", "append-only JSONL trajectory file")
		label   = flag.String("label", "local", "record label (commit SHA, PR number, ...)")
		ratio   = flag.Float64("warn-ratio", 1.5, "warn when wall time exceeds the baseline by this factor")
		window  = flag.Int("baseline-window", 3, "baseline = fastest of this many most recent prior records per config (noise floor)")
		fail    = flag.Bool("fail-on-regress", false, "exit 1 when a regression is flagged")
	)
	flag.Parse()
	if (*in == "") == (*gobench == "") {
		flag.Usage()
		os.Exit(2)
	}

	warnStaleLabel(*history, *label)
	rec := benchjson.Record{Label: *label, Env: hostEnv()}
	var regressed bool
	if *gobench != "" {
		rec.Benches, regressed = trackGoBench(*gobench, *history)
	} else {
		rec.Entries, regressed = trackWallTimes(*in, *history, *ratio, *window)
	}

	f, err := os.OpenFile(*history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		fatal(err)
	}
	fmt.Printf("perftrack: appended %q to %s\n", *label, *history)

	if regressed && *fail {
		os.Exit(1)
	}
}

// trackWallTimes reads an embench -bench-json file and compares every
// experiment's wall time with its baseline in the history.
func trackWallTimes(in, history string, ratio float64, window int) ([]benchjson.Entry, bool) {
	data, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	var bf benchjson.File
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(fmt.Errorf("parse %s: %w", in, err))
	}
	if len(bf.Entries) == 0 {
		fatal(fmt.Errorf("%s carries no experiment entries", in))
	}
	prev := baselineWallTimes(history, window)
	regressed := false
	for _, e := range bf.Entries {
		// Wall times are only comparable between identical run
		// configurations (experiment, episodes, seed, procs, axes); a
		// record taken with different settings is not a baseline.
		p, ok := prev[e.ConfigKey()]
		if !ok || p <= 0 {
			fmt.Printf("perftrack: %-10s %8.0f ms (no prior record for this config)\n", e.Experiment, e.WallMS)
			continue
		}
		r := e.WallMS / p
		mark := ""
		if r > ratio {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Printf("perftrack: %-10s %8.0f ms (baseline %.0f ms over last %d, x%.2f)%s\n",
			e.Experiment, e.WallMS, p, window, r, mark)
	}
	return bf.Entries, regressed
}

// bytesRatio is how far a benchmark's median B/op may exceed the median
// of its most recent prior record before -gobench flags a regression.
const bytesRatio = 1.25

// trackGoBench summarizes repeated Go benchmark samples and holds each
// benchmark's median B/op to the median in its most recent prior record.
// Bytes allocated per op barely move between runs or hosts, so unlike
// wall time one recorded median is a baseline a gate can trust.
func trackGoBench(in, history string) ([]benchjson.GoBench, bool) {
	f, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	benches, err := benchjson.ParseGoBench(f)
	if err != nil {
		fatal(fmt.Errorf("parse %s: %w", in, err))
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("%s carries no benchmark results", in))
	}
	prev := lastGoBenches(history)
	regressed := false
	for _, b := range benches {
		fmt.Printf("perftrack: %s n=%d  ns/op %.4g [%.4g, %.4g]  B/op %.4g [%.4g, %.4g]  allocs/op %.4g [%.4g, %.4g]\n",
			b.Name, b.Samples, b.NsOp.Median, b.NsOp.Q1, b.NsOp.Q3,
			b.BytesOp.Median, b.BytesOp.Q1, b.BytesOp.Q3, b.Allocs.Median, b.Allocs.Q1, b.Allocs.Q3)
		p, ok := prev[b.Key()]
		if !ok || p.BytesOp.Median <= 0 {
			fmt.Printf("perftrack: %s (no prior record)\n", b.Name)
			continue
		}
		r := b.BytesOp.Median / p.BytesOp.Median
		mark := ""
		if r > bytesRatio {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Printf("perftrack: %s B/op x%.3f against the recorded median %.4g (limit x%.2f)%s\n",
			b.Name, r, p.BytesOp.Median, bytesRatio, mark)
	}
	return benches, regressed
}

// warnStaleLabel flags a record label that does not advance the
// trajectory sequence: an exact repeat of the previous record's label, or
// a "prN-..." label whose number is at or below the previous record's.
// (The history already carries one mislabeled line — a later PR landed
// under the previous PR's label — because nothing checked this.) CI
// labels records by commit SHA, which the prN check deliberately ignores;
// repeated SHAs still warn, since re-measuring the same commit is usually
// a pipeline mistake.
func warnStaleLabel(path, label string) {
	last := lastLabel(path)
	if last == "" {
		return
	}
	if label == last {
		fmt.Fprintf(os.Stderr, "perftrack: warning: label %q repeats the previous record's label — give each measured change its own label so the trajectory stays attributable\n", label)
		return
	}
	if ln, ok := prSeq(last); ok {
		if nn, ok := prSeq(label); ok && nn <= ln {
			fmt.Fprintf(os.Stderr, "perftrack: warning: label %q does not advance the previous record's %q — check the sequence number\n", label, last)
		}
	}
}

// prSeq extracts N from a "prN..." label.
func prSeq(s string) (int, bool) {
	if !strings.HasPrefix(s, "pr") {
		return 0, false
	}
	digits := s[2:]
	end := 0
	for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
		end++
	}
	if end == 0 {
		return 0, false
	}
	n, err := strconv.Atoi(digits[:end])
	if err != nil {
		return 0, false
	}
	return n, true
}

// lastLabel reports the most recent parseable record's label ("" when the
// history is missing or holds none), tolerating corrupt lines the same
// way baselineWallTimes does.
func lastLabel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	last := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r benchjson.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue
		}
		if r.Label != "" {
			last = r.Label
		}
	}
	return last
}

// baselineWallTimes scans the history and reports, per run configuration
// (see benchjson.Entry.ConfigKey), the fastest wall time among the last
// `window` records — the noise-floor baseline a new measurement is held
// against. A missing or partially corrupt file is not an error — the
// trajectory should keep accumulating even if one line was mangled.
func baselineWallTimes(path string, window int) map[string]float64 {
	if window < 1 {
		window = 1
	}
	recent := map[string][]float64{} // config key -> last `window` wall times
	f, err := os.Open(path)
	if err != nil {
		return map[string]float64{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r benchjson.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue
		}
		for _, e := range r.Entries {
			k := e.ConfigKey()
			w := append(recent[k], e.WallMS)
			if len(w) > window {
				w = w[len(w)-window:]
			}
			recent[k] = w
		}
	}
	out := make(map[string]float64, len(recent))
	for k, w := range recent {
		best := w[0]
		for _, v := range w[1:] {
			if v > 0 && (best <= 0 || v < best) {
				best = v
			}
		}
		out[k] = best
	}
	return out
}

// lastGoBenches reports, per benchmark key, the benchmark as summarized
// in the most recent history record that holds it.
func lastGoBenches(path string) map[string]benchjson.GoBench {
	out := map[string]benchjson.GoBench{}
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r benchjson.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue
		}
		for _, b := range r.Benches {
			out[b.Key()] = b
		}
	}
	return out
}

// hostEnv stamps the record with the measuring machine's identity
// (hostname, GOMAXPROCS, Go toolchain) so cross-machine trajectory lines
// explain their own wall-time differences.
func hostEnv() benchjson.Env {
	host, _ := os.Hostname()
	return benchjson.Env{
		Host:       host,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perftrack:", err)
	os.Exit(1)
}
