package rng

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := New(42).Stream("planner")
	b := New(42).Stream("planner")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same-name streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	src := New(42)
	a := src.Stream("planner")
	b := src.Stream("comms")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look correlated: %d/64 equal draws", same)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1).Stream("x")
	b := New(2).Stream("x")
	diff := false
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSubNamespacing(t *testing.T) {
	root := New(7)
	e1 := root.Sub("episode-1").Stream("planner")
	e2 := root.Sub("episode-2").Stream("planner")
	if e1.Int63() == e2.Int63() && e1.Int63() == e2.Int63() {
		t.Fatal("sub-sources did not namespace streams")
	}
	// Sub is itself deterministic.
	x := root.Sub("episode-1").Stream("planner").Int63()
	y := New(7).Sub("episode-1").Stream("planner").Int63()
	if x != y {
		t.Fatal("Sub not deterministic across Source instances")
	}
}

func TestBernoulliBounds(t *testing.T) {
	st := New(9).NewStream("b")
	for i := 0; i < 100; i++ {
		if st.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !st.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	st := New(11).NewStream("rate")
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if st.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bernoulli(0.3) empirical rate = %.3f, want ≈0.30", rate)
	}
}

func TestRangeProperty(t *testing.T) {
	st := New(13).NewStream("range")
	f := func(a, b uint8) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := st.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	st := New(17).NewStream("jit")
	for i := 0; i < 1000; i++ {
		v := st.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

// TestDeriveMatchesFNV pins the stream and sub-source seeds to 64-bit
// FNV-1a of "<seed>/<name>", so every seeded sequence in the suite stays
// what it was.
func TestDeriveMatchesFNV(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<64 - 1} {
		for _, name := range []string{"", "planner", "serve/retry", "req-17", "é/ü"} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s", seed, name)
			want := h.Sum64()
			if got := New(seed).derive(name); got != want {
				t.Fatalf("derive(%d, %q) = %#x, want %#x", seed, name, got, want)
			}
			if got := New(seed).Sub(name).Seed(); got != want {
				t.Fatalf("Sub(%q) of %d has seed %#x, want %#x", name, seed, got, want)
			}
			a, b := New(seed).Stream(name), rand.New(rand.NewSource(int64(want)))
			for i := 0; i < 8; i++ {
				if a.Int63() != b.Int63() {
					t.Fatalf("Stream(%q) of %d diverges at draw %d", name, seed, i)
				}
			}
		}
	}
}

// TestReseedMatchesNewStream: a used stream re-seeded to a name draws the
// same sequence as a fresh NewStream of that name.
func TestReseedMatchesNewStream(t *testing.T) {
	src := New(9).Sub("serve/retry")
	st := src.NewStream("req-3")
	for i := 0; i < 37; i++ {
		st.Float64()
	}
	st.Intn(1000)
	src.Reseed(st, "req-11")
	fresh := src.NewStream("req-11")
	for i := 0; i < 100; i++ {
		var got, want float64
		switch i % 3 {
		case 0:
			got, want = st.Float64(), fresh.Float64()
		case 1:
			got, want = float64(st.Intn(1000)), float64(fresh.Intn(1000))
		default:
			got, want = st.NormFloat64(), fresh.NormFloat64()
		}
		if got != want {
			t.Fatalf("draw %d: re-seeded stream gave %v, fresh stream %v", i, got, want)
		}
	}
}
