package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchOutput renders five -count samples of one benchmark at bytes B/op.
func benchOutput(bytes int) string {
	out := "pkg: embench/internal/bench\n"
	for i := 0; i < 5; i++ {
		out += fmt.Sprintf("BenchmarkFig7RegenSequential-2 3 %d ns/op %d B/op 1941914 allocs/op\n", 700000000+i, bytes+i)
	}
	return out
}

// TestGoBenchBytesGate: a benchmark's median B/op is held to the median
// its latest prior record carries, and the first record has no baseline.
func TestGoBenchBytesGate(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	if err := os.WriteFile(history, []byte(`{"label":"old","entries":[{"experiment":"fig8","episodes":2,"seed":1,"procs":1,"wall_ms":70}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "bench.txt")
	track := func(bytes int) bool {
		t.Helper()
		if err := os.WriteFile(in, []byte(benchOutput(bytes)), 0o644); err != nil {
			t.Fatal(err)
		}
		benches, regressed := trackGoBench(in, history)
		if len(benches) != 1 || benches[0].BytesOp.Median != float64(bytes+2) {
			t.Fatalf("summarized %+v", benches)
		}
		return regressed
	}
	if track(330000000) {
		t.Error("no prior record flagged a regression")
	}
	if err := os.WriteFile(history, []byte(`{"label":"base","benches":[{"pkg":"embench/internal/bench","name":"BenchmarkFig7RegenSequential","samples":5,"ns_per_op":{},"bytes_per_op":{"median":330000000},"allocs_per_op":{}}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if track(400000000) {
		t.Error("x1.21 of the recorded median flagged")
	}
	if !track(420000000) {
		t.Error("x1.27 of the recorded median not flagged")
	}
}
