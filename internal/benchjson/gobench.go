package benchjson

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Spread summarizes repeated samples of one measurement: the median and
// the quartiles around it (Python's statistics.quantiles(xs, n=4), the
// rule the repository benchmark's -compare uses).
type Spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// GoBench is one Go benchmark measured -count times with -benchmem.
type GoBench struct {
	Pkg     string `json:"pkg,omitempty"`
	Name    string `json:"name"` // without the -GOMAXPROCS suffix
	Samples int    `json:"samples"`
	NsOp    Spread `json:"ns_per_op"`
	BytesOp Spread `json:"bytes_per_op"`
	Allocs  Spread `json:"allocs_per_op"`
}

// Key identifies the benchmark across records: package and name. The
// GOMAXPROCS suffix is left out so records from hosts of different sizes
// still line up; the record's Env keeps GOMAXPROCS for the reader.
func (b GoBench) Key() string { return b.Pkg + "." + b.Name }

// ParseGoBench reads `go test -bench -count=N -benchmem` output and
// summarizes each benchmark's samples, in order of first appearance.
// Lines other than "pkg:" headers and benchmark results are ignored. A
// result line without ns/op, B/op and allocs/op (a run without -benchmem)
// is an error.
func ParseGoBench(r io.Reader) ([]GoBench, error) {
	type samples struct {
		bench           GoBench
		ns, bytes, objs []float64
	}
	var order []string
	byKey := map[string]*samples{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's own log line, not a result
		}
		name := trimProcs(f[0])
		vals := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: value %q: %w", line, f[i], err)
			}
			vals[f[i+1]] = v
		}
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if _, ok := vals[unit]; !ok {
				return nil, fmt.Errorf("benchmark line %q has no %s (run with -benchmem)", line, unit)
			}
		}
		b := GoBench{Pkg: pkg, Name: name}
		s := byKey[b.Key()]
		if s == nil {
			s = &samples{bench: b}
			byKey[b.Key()] = s
			order = append(order, b.Key())
		}
		s.ns = append(s.ns, vals["ns/op"])
		s.bytes = append(s.bytes, vals["B/op"])
		s.objs = append(s.objs, vals["allocs/op"])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]GoBench, 0, len(order))
	for _, k := range order {
		s := byKey[k]
		b := s.bench
		b.Samples = len(s.ns)
		b.NsOp, b.BytesOp, b.Allocs = spreadOf(s.ns), spreadOf(s.bytes), spreadOf(s.objs)
		out = append(out, b)
	}
	return out, nil
}

// trimProcs strips the -GOMAXPROCS suffix: "BenchmarkX-8" → "BenchmarkX".
func trimProcs(s string) string {
	if i := strings.LastIndexByte(s, '-'); i >= 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

// spreadOf reports the quartiles of xs with Python's default (exclusive)
// method; a single sample is its own median and quartiles.
func spreadOf(xs []float64) Spread {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	switch len(xs) {
	case 0:
		return Spread{}
	case 1:
		return Spread{xs[0], xs[0], xs[0]}
	}
	var q [3]float64
	m := len(xs) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return Spread{q[0], q[1], q[2]}
}
