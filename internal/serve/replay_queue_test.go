package serve

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"embench/internal/rng"
)

// TestQueueOrderInvariant drives the replay loop's admission queue with a
// random mix of operations: inserts with tied arrivals, out-of-order
// re-queues of taken attempts (as a crash puts its batch back with the
// members' old arrivals), head removals through takeBatch, and whole-request
// removals by DeleteFunc (as a served request cancels its queued
// duplicates). After every operation the queue must equal its members
// sorted by (priority, arrival, id), and oldestQueued must equal their
// minimum arrival — never on an empty queue.
func TestQueueOrderInvariant(t *testing.T) {
	ref := func(l *replayLoop, a, b int) int {
		pa, pb := l.reqs[l.attempts[a].req].Priority, l.reqs[l.attempts[b].req].Priority
		if c := cmp.Compare(pa, pb); c != 0 {
			return c
		}
		if c := cmp.Compare(l.attempts[a].arrival, l.attempts[b].arrival); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	for _, c := range []struct {
		classes, maxBatch int
		seed              uint64
	}{
		{1, 4, 1}, {3, 4, 2}, {3, 1, 3}, {5, 8, 4},
	} {
		t.Run(fmt.Sprintf("classes=%d/mb=%d", c.classes, c.maxBatch), func(t *testing.T) {
			st := rng.New(c.seed).NewStream("queue-ops")
			const nreq = 40
			reqs := make([]Request, nreq)
			for i := range reqs {
				reqs[i].Priority = st.Intn(c.classes) - 1
			}
			e := New(Config{Replicas: 1, MaxBatch: c.maxBatch})
			l := &replayLoop{
				e: e, pools: []rPool{{e: e}},
				reqs: reqs, keys: make([]promptKey, nreq), states: make([]rState, nreq),
			}
			p := &l.pools[0]
			var queued, taken []int // the model: queued and taken attempt ids
			clock := time.Duration(0)
			for op := 0; op < 3000; op++ {
				switch k := st.Intn(10); {
				case k < 5: // a new attempt; arrivals tie often
					clock += time.Duration(st.Intn(3))
					req := st.Intn(nreq)
					l.states[req].live++
					l.attempts = append(l.attempts, rAttempt{req: req, arrival: clock})
					ai := len(l.attempts) - 1
					l.queueAttempt(ai)
					queued = append(queued, ai)
				case k < 7 && len(taken) > 0: // a crash re-queue keeps the old arrival
					i := st.Intn(len(taken))
					ai := taken[i]
					taken = slices.Delete(taken, i, i+1)
					l.states[l.attempts[ai].req].live++
					l.queueAttempt(ai)
					queued = append(queued, ai)
				case k < 9: // takeBatch: the head, at most one attempt per request
					slices.SortFunc(queued, func(a, b int) int { return ref(l, a, b) })
					var want []int
					for _, ai := range queued {
						if len(want) == c.maxBatch {
							break
						}
						if !slices.ContainsFunc(want, func(w int) bool { return l.attempts[w].req == l.attempts[ai].req }) {
							want = append(want, ai)
						}
					}
					l.takeBatch(p)
					if !slices.Equal(l.batch, want) {
						t.Fatalf("op %d: takeBatch took %v, want %v", op, l.batch, want)
					}
					for _, ai := range l.batch {
						l.states[l.attempts[ai].req].live--
						queued = slices.DeleteFunc(queued, func(q int) bool { return q == ai })
						taken = append(taken, ai)
					}
				default: // a served request drops its queued duplicates
					req := st.Intn(nreq)
					drop := func(q int) bool { return l.attempts[q].req == req }
					p.queue = slices.DeleteFunc(p.queue, drop)
					queued = slices.DeleteFunc(queued, drop)
					l.states[req].live = 0
				}
				want := slices.Clone(queued)
				slices.SortFunc(want, func(a, b int) int { return ref(l, a, b) })
				if !slices.Equal(p.queue, want) {
					t.Fatalf("op %d: queue %v, want %v", op, p.queue, want)
				}
				oldest := never
				for _, ai := range want {
					oldest = min(oldest, l.attempts[ai].arrival)
				}
				if got := l.oldestQueued(p.queue); got != oldest {
					t.Fatalf("op %d: oldestQueued = %v, want %v", op, got, oldest)
				}
			}
		})
	}
}

// TestCalendarOrder drives a calendar with random interleaved pushes and
// pops whose times tie heavily and whose ids arrive out of order. Every pop
// must return the least (at, id) entry still held, payload included, next
// must report that entry's time, and an empty calendar's next is never.
func TestCalendarOrder(t *testing.T) {
	st := rng.New(6).NewStream("calendar-ops")
	const n = 4000
	ids := st.Perm(n)
	var c calendar[int]
	var ref []calEntry[int] // the model, sorted before each pop
	byKey := func(a, b calEntry[int]) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id)) }
	for pushed := 0; pushed < n || len(ref) > 0; {
		if pushed < n && (len(ref) == 0 || st.Intn(5) < 3) {
			x := calEntry[int]{at: time.Duration(st.Intn(6)), id: ids[pushed], v: pushed}
			c.push(x.at, x.id, x.v)
			ref = append(ref, x)
			pushed++
		} else {
			slices.SortFunc(ref, byKey)
			if got := c.pop(); got != ref[0] {
				t.Fatalf("after %d pushes: pop = %+v, want %+v", pushed, got, ref[0])
			}
			ref = ref[1:]
		}
		want := never
		if len(ref) > 0 {
			want = slices.MinFunc(ref, byKey).at
		}
		if got := c.next(); got != want {
			t.Fatalf("after %d pushes: next = %v, want %v", pushed, got, want)
		}
	}
	if len(c) != 0 || c.next() != never {
		t.Fatalf("drained calendar holds %d entries, next = %v", len(c), c.next())
	}
}
