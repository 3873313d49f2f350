package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/rng"
)

// fleetScript drives a fleet of scripted episode goroutines: episode e
// issues calls[e] in order (each arrival already stamped) and records what
// it was served. Returns per-episode served slices.
func fleetScript(cfg Config, calls [][]llm.Call) [][]llm.Served {
	f := NewFleet(cfg, len(calls))
	out := make([][]llm.Served, len(calls))
	var wg sync.WaitGroup
	for e := range calls {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c := f.Client(e)
			defer c.Finish()
			for _, call := range calls[e] {
				out[e] = append(out[e], c.Serve(call))
			}
		}(e)
	}
	wg.Wait()
	return out
}

// scriptCalls builds `eps` episodes of `steps` staggered planning-sized
// calls each.
func scriptCalls(eps, steps int, period, stagger time.Duration) [][]llm.Call {
	calls := make([][]llm.Call, eps)
	for e := 0; e < eps; e++ {
		for s := 0; s < steps; s++ {
			calls[e] = append(calls[e], llm.Call{
				Agent:     fmt.Sprintf("e%d", e),
				Arrival:   time.Duration(s)*period + time.Duration(e)*stagger,
				Prompt:    sharedPrompt(fmt.Sprintf("e%d", e), 40+10*s),
				OutTokens: 50,
			})
		}
	}
	return calls
}

func TestFleetRerunByteIdentical(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 128}
	calls := scriptCalls(4, 6, 8*time.Second, 300*time.Millisecond)
	a := fleetScript(cfg, calls)
	for i := 0; i < 10; i++ {
		if b := fleetScript(cfg, calls); !reflect.DeepEqual(a, b) {
			t.Fatalf("fleet rerun %d diverged despite identical call scripts", i)
		}
	}
}

func TestFleetMergesByGlobalArrivalOrder(t *testing.T) {
	// Episode 1's first call arrives BEFORE episode 0's, so it must be
	// admitted first — episode 0's call queues behind it — no matter that
	// goroutine scheduling may submit them in any wall-clock order.
	cfg := Config{Profile: noJitter, Replicas: 1}
	calls := [][]llm.Call{
		{{Agent: "e0", Arrival: 2 * time.Second, Prompt: sharedPrompt("e0", 20), OutTokens: 50}},
		{{Agent: "e1", Arrival: 0, Prompt: sharedPrompt("e1", 20), OutTokens: 50}},
	}
	out := fleetScript(cfg, calls)
	if out[1][0].QueueWait != 0 {
		t.Fatalf("earlier-arriving episode 1 should not queue: %+v", out[1][0])
	}
	if out[0][0].QueueWait <= 0 {
		t.Fatalf("later-arriving episode 0 should queue behind episode 1: %+v", out[0][0])
	}
}

func TestFleetTieBreaksOnEpisodeID(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 1}
	calls := [][]llm.Call{
		{{Agent: "e0", Arrival: time.Second, Prompt: sharedPrompt("e0", 20), OutTokens: 50}},
		{{Agent: "e1", Arrival: time.Second, Prompt: sharedPrompt("e1", 20), OutTokens: 50}},
	}
	for i := 0; i < 20; i++ {
		out := fleetScript(cfg, calls)
		if out[0][0].QueueWait != 0 || out[1][0].QueueWait <= 0 {
			t.Fatalf("equal arrivals must admit the lower episode id first: %+v / %+v",
				out[0][0], out[1][0])
		}
	}
}

func TestFleetFinishUnblocksOthers(t *testing.T) {
	// Episode 1 makes no calls at all; if Finish didn't detach it, episode
	// 0's first Serve would block forever.
	cfg := Config{Profile: noJitter, Replicas: 1}
	calls := [][]llm.Call{
		{{Agent: "e0", Arrival: 0, Prompt: sharedPrompt("e0", 20), OutTokens: 50}},
		nil,
	}
	done := make(chan [][]llm.Served, 1)
	go func() { done <- fleetScript(cfg, calls) }()
	select {
	case out := <-done:
		if len(out[0]) != 1 {
			t.Fatalf("episode 0 served %d calls, want 1", len(out[0]))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fleet deadlocked: Finish did not detach the idle episode")
	}
}

func TestFleetCrossEpisodeCacheAndStats(t *testing.T) {
	// Two episodes share the system/task preamble: the second stream's
	// requests must hit the prefix the first one warmed — sharing that a
	// per-episode endpoint can never see.
	cfg := Config{Profile: noJitter, Replicas: 1, CacheEntries: 128}
	calls := scriptCalls(2, 4, 10*time.Second, 500*time.Millisecond)
	f := NewFleet(cfg, 2)
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c := f.Client(e)
			defer c.Finish()
			for _, call := range calls[e] {
				c.Serve(call)
			}
		}(e)
	}
	wg.Wait()
	total := f.Stats()
	if total.Requests != 8 {
		t.Fatalf("endpoint served %d requests, want 8", total.Requests)
	}
	if total.CacheHitRate() <= 0 {
		t.Fatal("cross-episode prefix sharing should produce cache hits")
	}
	s0, s1 := f.Client(0).ServingStats(), f.Client(1).ServingStats()
	if s0.Requests != 4 || s1.Requests != 4 {
		t.Fatalf("per-episode shares = %d/%d requests, want 4/4", s0.Requests, s1.Requests)
	}
	if s1.CachedTokens == 0 {
		t.Fatal("episode 1 should hit prefixes episode 0 warmed")
	}
	if got := s0.PrefillTokens + s1.PrefillTokens; got != total.PrefillTokens {
		t.Fatalf("episode shares should cover the endpoint's prefill: %d vs %d",
			got, total.PrefillTokens)
	}
}

func TestFleetServeBatchMergesAsUnit(t *testing.T) {
	// Episode 0 submits an explicit two-call phase batch keyed by its last
	// member (arrival 3s); episode 1's single call at 1s must be admitted
	// first even though the batch's first member nominally arrived at 0.
	cfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 4, MaxWait: time.Second}
	f := NewFleet(cfg, 2)
	var wg sync.WaitGroup
	var batch []llm.Served
	var single llm.Served
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := f.Client(0)
		defer c.Finish()
		batch = c.ServeBatch([]llm.Call{
			{Agent: "e0a", Arrival: 0, Prompt: sharedPrompt("e0a", 20), OutTokens: 50},
			{Agent: "e0b", Arrival: 3 * time.Second, Prompt: sharedPrompt("e0b", 20), OutTokens: 50},
		})
	}()
	go func() {
		defer wg.Done()
		c := f.Client(1)
		defer c.Finish()
		single = c.Serve(llm.Call{Agent: "e1", Arrival: time.Second,
			Prompt: sharedPrompt("e1", 20), OutTokens: 50})
	}()
	wg.Wait()
	if single.QueueWait != 0 {
		t.Fatalf("episode 1's earlier call should be admitted before the batch: %+v", single)
	}
	if len(batch) != 2 || batch[0].BatchSize != 2 || batch[1].BatchSize != 2 {
		t.Fatalf("explicit batch should serve as one unit: %+v", batch)
	}
	if batch[1].QueueWait <= 0 {
		t.Fatal("batch should queue behind episode 1's in-flight request")
	}
}

// fleetBackend is what a scripted episode needs from its fleet handle.
type fleetBackend interface {
	llm.BatchBackend
	Finish()
}

// fleetScriptOn is fleetScript against a caller-built fleet (heap, linear
// or sharded via the client accessor), mixing explicit phase batches in:
// an episode whose step index hits batchEvery submits that call and the
// next as one ServeBatch unit. Returns per-episode served slices flattened
// in submission order.
func fleetScriptOn[C fleetBackend](client func(int) C, calls [][]llm.Call, batchEvery int) [][]llm.Served {
	out := make([][]llm.Served, len(calls))
	var wg sync.WaitGroup
	for e := range calls {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c := client(e)
			defer c.Finish()
			for s := 0; s < len(calls[e]); {
				if batchEvery > 0 && s%batchEvery == batchEvery-1 && s+1 < len(calls[e]) {
					out[e] = append(out[e], c.ServeBatch(calls[e][s:s+2])...)
					s += 2
					continue
				}
				out[e] = append(out[e], c.Serve(calls[e][s]))
				s++
			}
		}(e)
	}
	wg.Wait()
	return out
}

// TestFleetDifferentialHeapVsLinear is the determinism contract of the
// heap-merge rewrite: on randomized workloads — random fleet sizes,
// arrival ties, explicit batches, every routing policy — the O(log N)
// heap merge with targeted wakeups must admit byte-for-byte the same
// order, results and endpoint totals as the seed linear-scan/broadcast
// reference it replaced.
func TestFleetDifferentialHeapVsLinear(t *testing.T) {
	routings := []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion}
	for trial := 0; trial < 12; trial++ {
		r := rng.New(uint64(trial + 1)).NewStream("fleet/differential")
		eps := 2 + r.Intn(7)
		steps := 2 + r.Intn(6)
		cfg := Config{
			Profile:  noJitter,
			Replicas: 1 + r.Intn(3),
			Routing:  routings[r.Intn(len(routings))],
			MaxBatch: 1 + r.Intn(4),
			MaxWait:  time.Duration(r.Intn(3)) * time.Second,
		}
		if r.Intn(2) == 0 {
			cfg.CacheEntries = 64
		}
		calls := make([][]llm.Call, eps)
		for e := 0; e < eps; e++ {
			for s := 0; s < steps; s++ {
				// Coarse arrival grid so cross-episode ties actually occur
				// and the (arrival, client id) tie-break is exercised.
				arrive := time.Duration(r.Intn(4*steps)) * time.Second
				calls[e] = append(calls[e], llm.Call{
					Agent:     fmt.Sprintf("e%d", e),
					Arrival:   arrive,
					Prompt:    sharedPrompt(fmt.Sprintf("e%d", e), 20+10*r.Intn(5)),
					OutTokens: 30 + 10*r.Intn(4),
				})
			}
		}
		batchEvery := r.Intn(4) // 0 = no explicit batches this trial
		heapF := NewFleet(cfg, eps)
		linF := newLinearFleet(cfg, eps)
		got := fleetScriptOn(heapF.Client, calls, batchEvery)
		want := fleetScriptOn(linF.Client, calls, batchEvery)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (eps=%d steps=%d cfg=%+v batchEvery=%d): heap merge diverged from linear reference\nheap   %+v\nlinear %+v",
				trial, eps, steps, cfg, batchEvery, got, want)
		}
		if hs, ls := heapF.Stats(), linF.Stats(); !reflect.DeepEqual(hs, ls) {
			t.Fatalf("trial %d: endpoint totals diverged: heap %+v linear %+v", trial, hs, ls)
		}
	}
}

// countingGate is a test Gate that tracks the peak number of concurrently
// held slots.
type countingGate struct {
	sem  chan struct{}
	mu   sync.Mutex
	held int
	peak int
}

func newCountingGate(slots int) *countingGate {
	return &countingGate{sem: make(chan struct{}, slots)}
}

func (g *countingGate) Acquire() {
	g.sem <- struct{}{}
	g.mu.Lock()
	g.held++
	if g.held > g.peak {
		g.peak = g.held
	}
	g.mu.Unlock()
}

func (g *countingGate) Release() {
	g.mu.Lock()
	g.held--
	g.mu.Unlock()
	<-g.sem
}

func (g *countingGate) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// TestFleetGateBoundsActiveEpisodes runs a fleet far larger than its gate
// under the runner's activation protocol (slot held while executing,
// released while parked in the merge) and checks three things: no
// deadlock, results identical to the ungated run, and the active-episode
// bound actually held.
func TestFleetGateBoundsActiveEpisodes(t *testing.T) {
	const eps, slots = 48, 3
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 128}
	calls := scriptCalls(eps, 5, 8*time.Second, 100*time.Millisecond)

	want := fleetScript(cfg, calls)

	f := NewFleet(cfg, eps)
	gate := newCountingGate(slots)
	f.SetGate(gate)
	got := make([][]llm.Served, eps)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for e := 0; e < eps; e++ {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				gate.Acquire()
				defer gate.Release()
				c := f.Client(e)
				defer c.Finish()
				for _, call := range calls[e] {
					got[e] = append(got[e], c.Serve(call))
				}
			}(e)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("gated fleet deadlocked")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("activation gating changed fleet results")
	}
	if p := gate.Peak(); p > slots {
		t.Fatalf("gate admitted %d concurrent episodes, cap %d", p, slots)
	}
}

// BenchmarkFleet is the cross-episode merge perf smoke: 4 scripted
// episodes × 16 calls through a shared two-replica endpoint.
func BenchmarkFleet(b *testing.B) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 128}
	calls := scriptCalls(4, 16, 8*time.Second, 300*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleetScript(cfg, calls)
	}
}

// linearFleet is the seed merge, kept as the test oracle of Fleet: an O(N)
// scan over every client per admission and a broadcast wakeup of every
// parked episode per serve. It admits exactly the order Fleet admits.
type linearFleet struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ep      *Endpoint
	clients []*linearClient
}

// linearClient is one episode's handle on a linearFleet.
type linearClient struct {
	f    *linearFleet
	id   int
	done bool
	pend *fleetPending
}

func newLinearFleet(cfg Config, episodes int) *linearFleet {
	f := &linearFleet{ep: New(cfg), clients: make([]*linearClient, episodes)}
	f.cond = sync.NewCond(&f.mu)
	for i := range f.clients {
		f.clients[i] = &linearClient{f: f, id: i}
	}
	return f
}

func (f *linearFleet) Client(i int) *linearClient { return f.clients[i] }

func (f *linearFleet) Stats() metrics.Serving {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ep.Stats()
}

// dispatch serves revealed requests in (arrival, client id) order while
// every live client has revealed one. Runs with f.mu held.
func (f *linearFleet) dispatch() {
	for {
		var best *linearClient
		for _, c := range f.clients {
			if c.done {
				continue
			}
			if c.pend == nil || c.pend.served {
				return // an episode has not revealed its next request yet
			}
			if best == nil || c.pend.arrival < best.pend.arrival {
				best = c
			}
		}
		if best == nil {
			return // every episode finished
		}
		p := best.pend
		if p.batch != nil {
			p.resB = f.ep.ServeBatch(p.batch)
		} else {
			p.res = f.ep.Serve(p.call)
		}
		p.served = true
		f.cond.Broadcast()
	}
}

// submit parks p in the merge and waits on the shared cond, waking at
// every admission anywhere in the fleet, until p is served.
func (c *linearClient) submit(p *fleetPending) {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	c.pend = p
	f.dispatch()
	for !p.served {
		f.cond.Wait()
	}
	c.pend = nil
}

func (c *linearClient) Serve(call llm.Call) llm.Served {
	p := &fleetPending{arrival: call.Arrival, call: call}
	c.submit(p)
	return p.res
}

func (c *linearClient) ServeBatch(calls []llm.Call) []llm.Served {
	p := &fleetPending{arrival: batchArrival(calls), batch: calls}
	c.submit(p)
	return p.resB
}

func (c *linearClient) Finish() {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	c.done = true
	f.dispatch()
	f.cond.Broadcast()
}

// fleetMergeSizes are the fleet sizes of the merge benchmark pair; each
// drives a bounded total call budget, so the per-admission cost is what
// scales.
var fleetMergeSizes = []int{16, 64, 256, 1024}

// benchFleetMerge drives scripted episodes through fresh fleets built by
// newFleet, one sub-benchmark per fleet size.
func benchFleetMerge[C fleetBackend](b *testing.B, newFleet func(Config, int) func(int) C) {
	cfg := Config{Profile: noJitter, Replicas: 4, MaxBatch: 4,
		MaxWait: 1500 * time.Millisecond, CacheEntries: 512}
	for _, n := range fleetMergeSizes {
		calls := scriptCalls(n, max(8192/n, 4), time.Duration(n)*12*time.Second, 40*time.Millisecond)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fleetScriptOn(newFleet(cfg, n), calls, 0)
			}
		})
	}
}

// BenchmarkFleetMergeHeap and BenchmarkFleetMergeLinear are the
// admission-complexity comparison, formerly fig10's before/after panel:
// the calendar merge with targeted wakeups against the seed linear scan
// with broadcast wakeups, on the same scripted streams.
func BenchmarkFleetMergeHeap(b *testing.B) {
	benchFleetMerge(b, func(cfg Config, n int) func(int) *FleetClient { return NewFleet(cfg, n).Client })
}

func BenchmarkFleetMergeLinear(b *testing.B) {
	benchFleetMerge(b, func(cfg Config, n int) func(int) *linearClient { return newLinearFleet(cfg, n).Client })
}
