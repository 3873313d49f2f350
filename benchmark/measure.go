package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"embench/internal/rng"
)

// instanceSeed derives the seed of a run's k-th input.
func instanceSeed(seed uint64, k int) uint64 {
	return rng.New(seed).Sub("benchmark/instance-" + strconv.Itoa(k)).Seed()
}

// instance is one set-up input: the round that replays it and what its
// warm-up round produced, which every later round must reproduce.
type instance struct {
	round    round
	digest   uint64
	ops      int
	requests int
	episodes int
}

// session is one set-up workload.
type session struct {
	inst []instance
	// setup holds each instance's set-up time in host seconds: generating
	// its inputs plus one warm-up round.
	setup []float64
	// virtual holds the warm-up rounds' virtual-clock metrics, averaged over
	// the instances.
	virtual map[string]float64
	// problems lists failed output checks, warm-up rounds included.
	problems []string
}

// prepare sets every instance of w up from seed and runs its warm-up round.
func prepare(w workload, seed uint64, p *probes) (*session, error) {
	s := &session{virtual: make(map[string]float64)}
	for k := 0; k < w.instances; k++ {
		start := clock()
		r, err := w.setup(instanceSeed(seed, k), p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res, err := r()
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up round: %w", w.name, err)
		}
		s.setup = append(s.setup, clock().Sub(start).Seconds())
		if err := res.check(); err != nil {
			s.problems = append(s.problems, fmt.Sprintf("instance %d warm-up: %v", k, err))
		}
		for name, v := range res.virtual() {
			s.virtual[name] += v / float64(w.instances)
		}
		s.inst = append(s.inst, instance{
			round: r, digest: digestOf(res),
			ops: res.ops(), requests: res.requests(), episodes: res.episodeCount(),
		})
	}
	return s, nil
}

func digestOf(r result) uint64 {
	d := &digester{h: fnv.New64a()}
	r.digest(d)
	return d.h.Sum64()
}

// digest combines the instances' digests into the run's.
func (s *session) digest() uint64 {
	d := &digester{h: fnv.New64a()}
	for _, in := range s.inst {
		d.int(int64(in.digest))
	}
	return d.h.Sum64()
}

// tally is what the measured rounds of a run add up to. Rounds cycle
// through the instances, and only whole cycles are measured, so every
// instance has the same number of rounds.
type tally struct {
	walls      [][]float64 // host seconds of each instance's rounds
	allocBytes uint64      // heap bytes the rounds allocated
	gcCycles   uint64      // GC cycles that completed during the rounds
	rounds     int
	ops        int
	failed     int // ops of rounds that failed a check
}

// measure cycles through the instances until budget of host time has
// passed, finishing the cycle it is in. Only the rounds themselves are
// timed and counted; the digest and output checks after each are not.
func (s *session) measure(budget time.Duration) (tally, error) {
	t := tally{walls: make([][]float64, len(s.inst))}
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	read := func() (alloc, cycles uint64) {
		rtmetrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64()
	}
	runtime.GC()
	start := clock()
	for t.rounds == 0 || clock().Sub(start) < budget {
		for k, in := range s.inst {
			alloc0, gc0 := read()
			t0 := clock()
			res, err := in.round()
			wall := clock().Sub(t0)
			alloc1, gc1 := read()
			if err != nil {
				return t, err
			}
			t.walls[k] = append(t.walls[k], wall.Seconds())
			t.allocBytes += alloc1 - alloc0
			t.gcCycles += gc1 - gc0
			t.rounds++
			t.ops += in.ops

			if d := digestOf(res); d != in.digest {
				t.failed += in.ops
				s.problems = append(s.problems, fmt.Sprintf("round %d: instance %d digest %016x differs from its warm-up's %016x", t.rounds, k, d, in.digest))
			} else if err := res.check(); err != nil {
				t.failed += in.ops
				s.problems = append(s.problems, fmt.Sprintf("round %d: instance %d: %v", t.rounds, k, err))
			}
		}
	}
	return t, nil
}

// hostMetrics derives the host-clock metrics of a run. A cycle is one
// round of every instance, so every cycle does the same work.
// requests_per_s and episodes_per_s divide a cycle's requests and episodes
// by the median cycle wall: the median, because other tenants of a shared
// host slow rounds down in bursts that would drag a mean, and the cycle,
// because its wall sums many rounds, so the noise of single rounds
// averages out before the median is taken. round_wall_ms_p90 pools every
// round after scaling its wall to the mean instance (its wall times the
// mean of the instance medians over its own instance's median), so
// instances of different size form one distribution.
func hostMetrics(s *session, t tally) map[string]float64 {
	var reqs, eps, sumMedian float64
	medians := make([]float64, len(s.inst))
	for k, in := range s.inst {
		reqs += float64(in.requests)
		eps += float64(in.episodes)
		medians[k] = quantile(append([]float64(nil), t.walls[k]...), 0.50)
		sumMedian += medians[k]
	}
	cycleWalls := make([]float64, t.rounds/len(s.inst))
	for _, walls := range t.walls {
		for c, w := range walls {
			cycleWalls[c] += w
		}
	}
	cycle := quantile(cycleWalls, 0.50)
	mean := sumMedian / float64(len(s.inst))
	var scaled []float64
	for k := range s.inst {
		for _, w := range t.walls[k] {
			scaled = append(scaled, w*mean/medians[k])
		}
	}
	cycles := float64(t.rounds) / float64(len(s.inst))
	m := map[string]float64{
		"requests_per_s":       reqs / cycle,
		"round_wall_ms_p90":    quantile(scaled, 0.90) * 1000,
		"alloc_kb_per_request": float64(t.allocBytes) / (reqs * cycles) / 1024,
		"peak_rss_mb":          peakRSSMiB(),
		"setup_s":              quantile(append([]float64(nil), s.setup...), 0.50),
	}
	if eps > 0 {
		m["episodes_per_s"] = eps / cycle
	}
	return m
}

// peakRSSMiB reports the process's peak resident set size. Linux reports
// ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
