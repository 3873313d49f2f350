package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// verdict judges one (workload, metric) pair of the parent's runs A
// against the change's runs B.
type verdict struct {
	a, b   [3]float64 // first quartile, median, third quartile
	change float64    // the medians' relative change; positive is worse
	spread float64    // A's quartile distance as a share of its median
	wins   int        // seed-matched pairs B wins; ties count for neither side
	pairs  int
	call   string // better, worse, same or unresolved
}

// minPairs is how many seed-matched pairs a better verdict needs.
const minPairs = 10

// judge applies the benchmark's rules. Where A's spread exceeds the bound
// the metric is unresolved unless every B run beats every A run. Otherwise
// B is worse when its median is worse by more than the bound, and better
// when it wins at least nine tenths of the pairs and the medians differ by
// more than A's quartile distance. Either better needs minPairs pairs.
func judge(d metricDef, a, b map[uint64]float64) verdict {
	better := func(x, y float64) bool {
		if d.Better == "lower" {
			return x < y
		}
		return x > y
	}
	as, bs := sortedValues(a), sortedValues(b)
	v := verdict{a: quartiles(as), b: quartiles(bs)}
	if v.a[1] != 0 {
		v.change = (v.b[1] - v.a[1]) / math.Abs(v.a[1])
		if d.Better == "higher" {
			v.change = -v.change
		}
		v.spread = (v.a[2] - v.a[0]) / math.Abs(v.a[1])
	}
	for seed, x := range a {
		if y, ok := b[seed]; ok {
			v.pairs++
			if better(y, x) {
				v.wins++
			}
		}
	}
	enough := v.pairs >= minPairs
	allBetter := enough && better(bs[len(bs)-1], as[0]) && better(bs[0], as[len(as)-1])
	switch {
	case v.spread > d.Bound:
		v.call = "unresolved"
		if allBetter {
			v.call = "better"
		}
	case v.change > d.Bound:
		v.call = "worse"
	case enough && 10*v.wins >= 9*v.pairs && better(v.b[1], v.a[1]) &&
		math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]:
		v.call = "better"
	default:
		v.call = "same"
	}
	return v
}

func sortedValues(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of
// sorted xs by the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	switch len(xs) {
	case 0:
		return q
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	m := len(xs) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(xs)-1 {
			j = len(xs) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q
}

// compareFiles prints a verdict for every workload and end-to-end metric
// of two JSONL files of untraced run records, and fails when any metric is
// worse.
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-22s %28s %28s %8s %7s %6s  %s\n",
		"workload", "metric", "A q1/median/q3", "B q1/median/q3", "change", "spreadA", "wins", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range spec.EndToEnd {
			av, bv := metricBySeed(a, wl.name, d.Name), metricBySeed(b, wl.name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(d, av, bv)
			if v.call == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-15s %-22s %9.4g/%9.4g/%8.4g %9.4g/%9.4g/%8.4g %+7.2f%% %6.2f%% %2d/%-3d  %s\n",
				wl.name, d.Name, v.a[0], v.a[1], v.a[2], v.b[0], v.b[1], v.b[2],
				100*v.change, 100*v.spread, v.wins, v.pairs, v.call)
		}
	}
	// The virtual clock and the outputs are exact per seed, so any change is
	// real; it is reported, not judged, since a change may mean to make it.
	fmt.Fprintf(w, "\n%-15s %-36s %s\n", "workload", "output digest or virtual metric", "seeds that differ")
	names := []string{"digest"}
	for _, d := range virtualMetrics {
		names = append(names, d.Name)
	}
	for _, wl := range workloads {
		da, db := detailsBySeed(a, wl.name), detailsBySeed(b, wl.name)
		for _, n := range names {
			if changed, compared := exactChanges(da, db, n); compared > 0 {
				fmt.Fprintf(w, "%-15s %-36s %d of %d\n", wl.name, n, changed, compared)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload metrics are worse by more than their bound", worse)
	}
	return nil
}

// detailsBySeed collects one workload's untraced run details, keyed by
// seed.
func detailsBySeed(recs []record, workload string) map[uint64]detailLine {
	out := make(map[uint64]detailLine)
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			out[r.Seed] = r.Detail
		}
	}
	return out
}

// exactChanges counts the seeds run on both sides whose digest, or whose
// detail metric name, differs; compared counts the seeds where either
// side has it.
func exactChanges(a, b map[uint64]detailLine, name string) (changed, compared int) {
	for seed, x := range a {
		y, ok := b[seed]
		if !ok {
			continue
		}
		same := x.Digest == y.Digest
		if name != "digest" {
			xv, xok := x.Metrics[name]
			yv, yok := y.Metrics[name]
			if !xok && !yok {
				continue
			}
			same = xok == yok && xv == yv
		}
		compared++
		if !same {
			changed++
		}
	}
	return changed, compared
}

// metricBySeed collects one metric of one workload's untraced runs, keyed
// by seed; a later run of a seed replaces an earlier one.
func metricBySeed(recs []record, workload, metric string) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = v.Value
		}
	}
	return out
}
