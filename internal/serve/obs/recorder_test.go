package obs

import (
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// recorderEvent is the i-th event of the recorder tests' streams: content
// varies with i so a misplaced or dropped event shows.
func recorderEvent(i int) Event {
	kinds := []Kind{KindSubmit, KindRoute, KindBatchStart, KindComplete}
	return Event{
		Kind: kinds[i%len(kinds)], T: time.Duration(i) * time.Millisecond,
		Replica: i % 3, Req: int64(i/4 + 1), Batch: 1 + i%4, Tokens: 10 * i,
	}
}

// recorderCounts are the stream lengths around the chunk boundaries.
var recorderCounts = []int{0, 1, recorderChunk - 1, recorderChunk, recorderChunk + 1, 3*recorderChunk + 7}

// TestRecorderChunkBoundaries records streams ending on both sides of
// chunk boundaries: Seq runs 0..n-1, Events equals the stream an append
// built (nil when empty), and Len agrees, before and after a Reset.
func TestRecorderChunkBoundaries(t *testing.T) {
	for _, n := range recorderCounts {
		want := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			ev := recorderEvent(i)
			ev.Seq = int64(i)
			want = append(want, ev)
		}
		r := NewRecorder()
		for pass := 0; pass < 2; pass++ {
			r.Reset()
			for i := 0; i < n; i++ {
				r.Event(recorderEvent(i))
			}
			got := r.Events()
			if len(got) != n || cap(got) != n || r.Len() != n {
				t.Fatalf("n=%d pass %d: len %d cap %d Len %d", n, pass, len(got), cap(got), r.Len())
			}
			if n == 0 && got != nil {
				t.Fatalf("pass %d: Events of an empty recorder = %v, want nil", pass, got)
			}
			if n > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d pass %d: Events differs from the appended stream", n, pass)
			}
		}
	}
}

// TestRecorderResetReusesChunks: a reset recorder re-records a stream of
// the same length without allocating.
func TestRecorderResetReusesChunks(t *testing.T) {
	for _, n := range recorderCounts {
		r := NewRecorder()
		record := func() {
			r.Reset()
			for i := 0; i < n; i++ {
				r.Event(recorderEvent(i))
			}
		}
		record()
		if allocs := testing.AllocsPerRun(10, record); allocs != 0 {
			t.Errorf("n=%d: re-recording after Reset allocates %.1f objects, want 0", n, allocs)
		}
	}
}

// TestRecorderConcurrentSeq: concurrent recording hands out every Seq in
// 0..n-1 exactly once.
func TestRecorderConcurrentSeq(t *testing.T) {
	const workers, each = 8, 2*recorderChunk + 13
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Event(recorderEvent(i))
			}
		}()
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != workers*each || r.Len() != workers*each {
		t.Fatalf("recorded %d events (Len %d), want %d", len(evs), r.Len(), workers*each)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
}

// TestRecorderAllocation pins chunked storage: a fresh recorder that
// records n events allocates itself, its ceil(n/chunk) chunks and the chunk
// index's O(log n) regrowths, and under 1.1 bytes per stored event byte —
// no event is copied into a regrown buffer.
func TestRecorderAllocation(t *testing.T) {
	const n = 40*recorderChunk + 17
	record := func() {
		r := NewRecorder()
		for i := 0; i < n; i++ {
			r.Event(recorderEvent(i))
		}
	}
	chunks := (n + recorderChunk - 1) / recorderChunk
	maxAllocs := float64(1 + chunks + bits.Len(uint(chunks)) + 1)
	if allocs := testing.AllocsPerRun(5, record); allocs > maxAllocs {
		t.Errorf("recording %d events allocates %.0f objects, want <= %.0f", n, allocs, maxAllocs)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		record()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.1 * n * float64(unsafe.Sizeof(Event{})); perRun >= limit {
		t.Errorf("recording %d events allocates %.0f B, want < %.0f B", n, perRun, limit)
	}
}
