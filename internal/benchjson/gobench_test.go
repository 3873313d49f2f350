package benchjson

import (
	"strings"
	"testing"
)

const cannedGoBench = `goos: linux
goarch: amd64
pkg: embench/internal/bench
cpu: Intel(R) Xeon(R) Processor
BenchmarkFig7RegenSequential-2   	       3	 976780475 ns/op	826422226 B/op	 2393714 allocs/op
BenchmarkFig7RegenSequential-2   	       3	 903442932 ns/op	826424768 B/op	 2393739 allocs/op
BenchmarkFig7RegenSequential-2   	       3	 951139807 ns/op	826423248 B/op	 2393724 allocs/op
BenchmarkFig7RegenSequential-2   	       3	1006704729 ns/op	826422968 B/op	 2393717 allocs/op
BenchmarkFig7RegenSequential-2   	       3	 884721868 ns/op	826424402 B/op	 2393730 allocs/op
BenchmarkOther   	     100	      10.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	embench/internal/bench	50.1s
`

func TestParseGoBench(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(cannedGoBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	fig7 := got[0]
	if fig7.Key() != "embench/internal/bench.BenchmarkFig7RegenSequential" || fig7.Samples != 5 {
		t.Fatalf("fig7 parsed as %+v", fig7)
	}
	// Python: statistics.quantiles([...ns...], n=4)
	if want := (Spread{894082400, 951139807, 991742602}); fig7.NsOp != want {
		t.Errorf("ns/op spread %+v, want %+v", fig7.NsOp, want)
	}
	if fig7.BytesOp.Median != 826423248 || fig7.Allocs.Median != 2393724 {
		t.Errorf("medians B/op %v allocs/op %v", fig7.BytesOp.Median, fig7.Allocs.Median)
	}
	if other := got[1]; other.Name != "BenchmarkOther" || other.NsOp != (Spread{10.5, 10.5, 10.5}) || other.Samples != 1 {
		t.Errorf("single sample parsed as %+v", other)
	}
	if _, err := ParseGoBench(strings.NewReader("BenchmarkX-2 3 10 ns/op\n")); err == nil {
		t.Error("a result without -benchmem columns parsed")
	}
}
