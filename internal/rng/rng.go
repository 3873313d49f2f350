// Package rng provides deterministic, named random-number streams.
//
// Every experiment in the suite derives all of its randomness from a single
// root seed, split into independent sub-streams by name (one per agent, per
// module, per episode). Two runs with the same root seed produce identical
// traces; changing one consumer's draw pattern cannot perturb another
// stream. This is what makes the paper's sweeps (memory capacity, agent
// count, model swap) comparable: the underlying task instances stay fixed.
package rng

import (
	"math/rand"
	"strconv"
)

// Source derives independent sub-streams from a root seed.
type Source struct {
	seed uint64
}

// New returns a stream source rooted at seed.
func New(seed uint64) *Source { return &Source{seed: seed} }

// Seed reports the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Stream returns a deterministic *rand.Rand for the given name. Repeated
// calls with the same name return fresh generators with identical sequences.
func (s *Source) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(s.derive(name))))
}

// Sub returns a derived Source, useful for giving each episode its own
// namespace: rng.New(7).Sub("episode-3").Stream("planner").
func (s *Source) Sub(name string) *Source {
	return &Source{seed: s.derive(name)}
}

// derive hashes "<seed>/<name>" with 64-bit FNV-1a: the seed of the stream
// or sub-source called name.
func (s *Source) derive(name string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var buf [20]byte
	h := uint64(offset)
	for _, c := range strconv.AppendUint(buf[:0], s.seed, 10) {
		h = (h ^ uint64(c)) * prime
	}
	h = (h ^ '/') * prime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	return h
}

// Stream wraps *rand.Rand with the helpers the suite uses.
type Stream struct {
	*rand.Rand
}

// NewStream returns a helper-wrapped stream for the given name.
func (s *Source) NewStream(name string) *Stream {
	return &Stream{Rand: s.Stream(name)}
}

// Reseed re-seeds st in place so it draws exactly the sequence
// NewStream(name) would: a caller that is done with one named stream can
// reuse its generator for another instead of allocating a fresh one.
func (s *Source) Reseed(st *Stream, name string) {
	st.Seed(int64(s.derive(name)))
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (st *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return st.Float64() < p
}

// Pick returns a uniformly random index in [0,n). It panics if n <= 0,
// matching rand.Intn.
func (st *Stream) Pick(n int) int { return st.Intn(n) }

// Range returns a uniform float64 in [lo, hi).
func (st *Stream) Range(lo, hi float64) float64 {
	return lo + st.Float64()*(hi-lo)
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// used to add bounded variation to latency cost models.
func (st *Stream) Jitter(v float64, frac float64) float64 {
	return v * (1 + st.Range(-frac, frac))
}
