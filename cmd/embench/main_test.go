package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"embench/internal/benchjson"
)

// buildBinary compiles the embench binary into a temp dir; every CLI
// error-surface case execs the same artifact, so the table exercises the
// real flag plumbing, not a re-implementation of it.
func buildBinary(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "embench-cli-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	bin := filepath.Join(dir, "embench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building embench: %v\n%s", err, out)
	}
	return bin
}

// TestCLIErrorSurface pins the contract that every config-validation
// failure exits non-zero with a single-line "embench: ..." error naming
// the offending flag — no panic, no goroutine dump, no partial run.
func TestCLIErrorSurface(t *testing.T) {
	bin := buildBinary(t)

	// All resilience specs parse before the trace file opens, so a
	// nonexistent -replay-trace path reaches the spec error first.
	replay := []string{"-replay-trace", "does-not-exist.jsonl"}
	cases := []struct {
		name string
		args []string
		want string // substring of the one-line stderr
	}{
		{"faults missing separator", append(replay, "-serve-faults", "bogus"), "-serve-faults:"},
		{"faults bad duration", append(replay, "-serve-faults", "mtbf=fast"), "-serve-faults:"},
		{"faults negative duration", append(replay, "-serve-faults", "mttr=-3s"), "-serve-faults:"},
		{"retry bad max", append(replay, "-serve-retry", "max=many"), "-serve-retry:"},
		{"retry zero max", append(replay, "-serve-retry", "max=0"), "-serve-retry:"},
		{"retry bad base", append(replay, "-serve-retry", "base=0s"), "-serve-retry:"},
		{"hedge unknown key", append(replay, "-serve-hedge", "after=2s"), "-serve-hedge:"},
		{"hedge bad delay", append(replay, "-serve-hedge", "delay=soon"), "-serve-hedge:"},
		{"shed bad queue", append(replay, "-serve-shed", "queue=deep"), "-serve-shed:"},
		{"shed zero queue", append(replay, "-serve-shed", "queue=0"), "-serve-shed:"},
		{"deadline negative replay", append(replay, "-serve-deadline", "-40s"), "-serve-deadline"},
		{"batch negative replay", append(replay, "-serve-batch", "-3"), "-serve-batch"},
		// Non-finite and unrepresentable numbers: each used to run and
		// report garbage virtual times.
		{"faults infinite slow", append(replay, "-serve-faults", "straggle=1m,slow=+Inf"), "-serve-faults:"},
		{"retry NaN factor", append(replay, "-serve-retry", "max=2,factor=NaN"), "-serve-retry:"},
		{"handoff tiny rate", append(replay, "-serve-handoff", "rate=1e-300"), "-serve-handoff:"},
		{"autoscale NaN up", []string{"-exp", "fig12", "-serve-autoscale", "interval=10s,up=NaN"}, "-serve-autoscale:"},
		// The client policies act in -replay-trace only; closed-loop -run
		// refuses them instead of silently dropping them.
		{"run refuses client policies", []string{"-run", "MindAgent", "-serve-replicas", "1",
			"-serve-retry", "on", "-serve-hedge", "on", "-serve-deadline", "5s"},
			"-serve-retry, -serve-hedge, -serve-deadline"},
		{"run refuses shed", []string{"-run", "MindAgent", "-serve-fleet", "2", "-serve-shed", "on"}, "-serve-shed"},
		// Experiments build their own deployments; -exp refuses the
		// endpoint flags it would otherwise ignore, naming each one set.
		{"exp refuses endpoint flags", []string{"-exp", "table1", "-episodes", "1",
			"-serve-retry", "on", "-serve-deadline", "5s", "-serve-faults", "on"},
			"-serve-deadline, -serve-faults, -serve-retry:"},
		{"exp refuses default-valued flag", []string{"-exp", "fig12", "-serve-batch", "1"}, "-serve-batch:"},
		{"exp refuses pools", []string{"-exp", "fig13", "-serve-prefill-replicas", "2",
			"-serve-decode-replicas", "2", "-serve-tenants", "8"},
			"-serve-decode-replicas, -serve-prefill-replicas:"},
		// The deadline check is mode-independent: it must fire even when
		// no serving mode would consume the value.
		{"deadline negative list mode", []string{"-list", "-serve-deadline", "-1s"}, "-serve-deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want non-zero exit, got err=%v stdout=%q stderr=%q", err, stdout.String(), stderr.String())
			}
			if code := ee.ExitCode(); code != 1 {
				t.Errorf("exit code = %d, want 1; stderr=%q", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Count(msg, "\n") != 0 {
				t.Errorf("stderr is not one line:\n%s", stderr.String())
			}
			if !strings.HasPrefix(msg, "embench: ") {
				t.Errorf("stderr %q does not start with %q", msg, "embench: ")
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("stderr %q does not name the flag (%q)", msg, tc.want)
			}
			if strings.Contains(stderr.String(), "goroutine") || strings.Contains(stderr.String(), "panic") {
				t.Errorf("stderr looks like a crash:\n%s", stderr.String())
			}
		})
	}
}

// TestCLIProfiles: -cpuprofile and -memprofile each write a non-empty
// profile of the embench process.
func TestCLIProfiles(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(bin, "-exp", "fig2", "-episodes", "1", "-cpuprofile", cpu, "-memprofile", mem)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("embench: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestCLIBenchRecord: -bench-json records the experiment under its
// canonical name with the effective axis of every override it read, so a
// run on non-default fig14 settings never gates against default fig14.
func TestCLIBenchRecord(t *testing.T) {
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "bench.json")
	cmd := exec.Command(bin, "-exp", "FIG14", "-episodes", "1",
		"-serve-tenants", "32", "-serve-slo", "45s", "-bench-json", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("embench: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchjson.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 1 {
		t.Fatalf("entries = %+v, want one", f.Entries)
	}
	e := f.Entries[0]
	if want := "tenants=32;slo=45s;autoscale=default"; e.Experiment != "fig14" || e.Axis != want {
		t.Errorf("record = %q axis %q, want fig14 axis %q", e.Experiment, e.Axis, want)
	}
}
