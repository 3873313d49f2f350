package memory

import (
	"fmt"
	"testing"
	"time"

	"embench/internal/rng"
)

// referenceRetrieve is the allocating copy-filter Retrieve: a fresh slice
// of every record inside the window, built on each call. Store.Retrieve
// must return the same records, tokens and latency.
func referenceRetrieve(s *Store, currentStep int) Retrieval {
	var out []Record
	cut := -1
	if s.capacity > 0 {
		cut = currentStep - s.capacity
	}
	if s.capacity != 0 {
		for _, r := range s.records {
			if r.Step > cut || s.capacity < 0 {
				out = append(out, r)
			}
		}
	}
	ret := Retrieval{Records: out}
	for _, r := range out {
		ret.Tokens += r.Tokens
	}
	ret.Latency = retrievalBase + time.Duration(len(out))*retrievalPerRecord
	return ret
}

func sameRetrieval(t *testing.T, what string, got, want Retrieval) {
	t.Helper()
	if got.Tokens != want.Tokens || got.Latency != want.Latency || len(got.Records) != len(want.Records) {
		t.Fatalf("%s: got %d records/%d tokens/%v, want %d/%d/%v", what,
			len(got.Records), got.Tokens, got.Latency, len(want.Records), want.Tokens, want.Latency)
	}
	for i := range want.Records {
		g, w := got.Records[i], want.Records[i]
		if g.Step != w.Step || g.Kind != w.Kind || g.Key != w.Key || g.Tokens != w.Tokens ||
			g.Static != w.Static || g.Routine != w.Routine || !SamePayload(g.Payload, w.Payload) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
	}
	if cap(got.Records) != len(got.Records) {
		t.Fatalf("%s: view has cap %d > len %d", what, cap(got.Records), len(got.Records))
	}
}

// randomRecord draws a record for step: keys repeat so dedup and latest
// tracking engage, and a quarter of the records arrive one or two steps
// late, as kitchen's progress facts do.
func randomRecord(r interface{ Intn(int) int }, step int) Record {
	s := step
	if r.Intn(4) == 0 {
		s -= 1 + r.Intn(2)
	}
	return Record{
		Step:    s,
		Kind:    Kind(r.Intn(3)),
		Key:     fmt.Sprintf("k%d", r.Intn(48)),
		Payload: r.Intn(3),
		Tokens:  1 + r.Intn(20),
		Static:  r.Intn(16) == 0,
	}
}

// TestRetrieveMatchesCopyFilter is the differential test for the reused
// retrieval buffers: over generated out-of-order Add sequences that cross
// pruneThreshold several times, every Retrieve equals the copy-filter
// reference at each capacity, and Dual.Retrieve equals the reference
// long records followed by the reference short ones.
func TestRetrieveMatchesCopyFilter(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 4, 32} {
		for seed := uint64(1); seed <= 2; seed++ {
			r := rng.New(seed).Stream(fmt.Sprintf("retrieve/%d", capacity))
			s := NewStore(capacity)
			d := NewDual(capacity, 200)
			adds := 0
			for step := 0; adds < 5*pruneThreshold/2; step++ {
				for n := r.Intn(80); n > 0; n-- {
					rec := randomRecord(r, step)
					s.Add(rec)
					d.Add(rec)
					adds++
				}
				what := fmt.Sprintf("cap %d seed %d step %d", capacity, seed, step)
				want := referenceRetrieve(s, step)
				sameRetrieval(t, what, s.Retrieve(step), want)

				long, short := referenceRetrieve(d.Long, step), referenceRetrieve(d.Short, step)
				got := d.Retrieve(step)
				wantDual := Retrieval{
					Records: append(append([]Record(nil), long.Records...), short.Records...),
					Tokens:  min(long.Tokens, d.LongBudget) + short.Tokens,
					Latency: retrievalBase + time.Duration(len(short.Records))*retrievalPerRecord,
				}
				sameRetrieval(t, "dual "+what, got, wantDual)
			}
			if capacity > 0 && s.Len() > pruneThreshold+80 {
				t.Fatalf("cap %d: %d records held, prune never ran", capacity, s.Len())
			}
		}
	}
}

// TestRetrieveViewDoesNotAlias: appending to a returned view must not
// change what the store retrieves next, for windowed, unlimited and dual
// memories.
func TestRetrieveViewDoesNotAlias(t *testing.T) {
	stores := map[string]interface {
		Add(Record)
		Retrieve(int) Retrieval
	}{
		"windowed":  NewStore(4),
		"unlimited": NewStore(-1),
		"dual":      NewDual(4, 100),
	}
	for _, name := range []string{"windowed", "unlimited", "dual"} {
		s := stores[name]
		for step := 0; step < 10; step++ {
			s.Add(Record{Step: step, Key: fmt.Sprintf("k%d", step), Payload: step, Tokens: 3})
			s.Add(Record{Step: step, Key: fmt.Sprintf("map%d", step), Static: true, Tokens: 2})
		}
		before := s.Retrieve(9)
		snapshot := append([]Record(nil), before.Records...)
		grown := append(before.Records, Record{Step: 9, Key: "intruder", Tokens: 99})
		grown[0].Key = "overwritten"
		after := s.Retrieve(9)
		sameRetrieval(t, name, after, Retrieval{Records: snapshot, Tokens: before.Tokens, Latency: before.Latency})
	}
}

var retrieveSink Retrieval

// TestRetrieveAllocationFree: once its buffer has grown, Retrieve
// allocates nothing, whether it copies a window, returns an unlimited
// store's records or merges a dual memory.
func TestRetrieveAllocationFree(t *testing.T) {
	windowed, unlimited, dual := NewStore(32), NewStore(-1), NewDual(32, 200)
	for step := 0; step < 100; step++ {
		for k := 0; k < 8; k++ {
			rec := Record{Step: step, Key: fmt.Sprintf("obj:%d", k), Payload: step, Tokens: 12}
			windowed.Add(rec)
			unlimited.Add(rec)
			dual.Add(rec)
			dual.Add(Record{Step: step, Key: fmt.Sprintf("self:%d", k), Payload: step, Tokens: 4, Routine: true})
		}
	}
	for name, retrieve := range map[string]func(int) Retrieval{
		"windowed":  windowed.Retrieve,
		"unlimited": unlimited.Retrieve,
		"dual":      dual.Retrieve,
	} {
		retrieveSink = retrieve(99) // warm the buffer
		if allocs := testing.AllocsPerRun(100, func() { retrieveSink = retrieve(99) }); allocs != 0 {
			t.Errorf("%s Retrieve allocates %.1f objects per call, want 0", name, allocs)
		}
		if len(retrieveSink.Records) == 0 {
			t.Errorf("%s Retrieve returned nothing", name)
		}
	}
}
