package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/serve/obs"
)

// monotoneCalls builds a deterministic closed-loop call sequence with
// non-decreasing arrivals — the submission order a single episode clock (or
// a fleet merge) produces.
func monotoneCalls(n int) []llm.Call {
	calls := make([]llm.Call, n)
	for i := range calls {
		calls[i] = llm.Call{
			Agent:     fmt.Sprintf("a%d", i%3),
			Arrival:   time.Duration(i) * 900 * time.Millisecond,
			Prompt:    sharedPrompt(fmt.Sprintf("a%d", i%3), 40+7*(i%5)),
			OutTokens: 30 + i%4*10,
		}
	}
	return calls
}

// TestServeNilSinkZeroAllocs pins the un-instrumented closed-loop hot path
// at zero allocations per request, on a monolithic endpoint and on a
// disaggregated one (whose stage pools serve through the same path).
func TestServeNilSinkZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"monolithic", Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
			MaxWait: time.Second, CacheTokens: 4096}},
		{"disaggregated", Config{Profile: noJitter, CacheTokens: 4096,
			Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
			Decode:  PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
			Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.cfg)
			call := llm.Call{Agent: "a", Prompt: sharedPrompt("a", 40), OutTokens: 30}
			// Warm the endpoint's reusable scratch (chain buffer, latency
			// buffers, cache entries, histogram state) so steady state is
			// what's measured.
			for i := 0; i < 16; i++ {
				call.Arrival = time.Duration(i) * time.Second
				e.Serve(call)
			}
			arrival := call.Arrival
			allocs := testing.AllocsPerRun(200, func() {
				arrival += time.Second
				call.Arrival = arrival
				e.Serve(call)
			})
			if allocs != 0 {
				t.Fatalf("nil-sink Serve allocates %.1f objects/request, want 0", allocs)
			}
		})
	}
}

func BenchmarkServeNilSink(b *testing.B) {
	e := New(Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheTokens: 4096})
	call := llm.Call{Agent: "a", Prompt: sharedPrompt("a", 40), OutTokens: 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		call.Arrival = time.Duration(i) * time.Second
		e.Serve(call)
	}
}

func BenchmarkServeRecorder(b *testing.B) {
	e := New(Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheTokens: 4096})
	rec := obs.NewRecorder()
	e.SetSink(rec)
	call := llm.Call{Agent: "a", Prompt: sharedPrompt("a", 40), OutTokens: 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		call.Arrival = time.Duration(i) * time.Second
		e.Serve(call)
	}
}

// TestSinkDoesNotPerturbServing is the instrumentation no-op contract: an
// attached sink must leave served results and endpoint statistics
// byte-identical to an un-instrumented run.
func TestSinkDoesNotPerturbServing(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheTokens: 2048, Routing: RouteCacheAffinity,
		Autoscale: Autoscale{Interval: 5 * time.Second, ColdStart: time.Second, Max: 2}}
	run := func(sink obs.Sink) ([]llm.Served, any) {
		e := New(cfg)
		if sink != nil {
			e.SetSink(sink)
		}
		var out []llm.Served
		for _, c := range monotoneCalls(40) {
			out = append(out, e.Serve(c))
		}
		return out, e.Stats()
	}
	plainOut, plainStats := run(nil)
	rec := obs.NewRecorder()
	tracedOut, tracedStats := run(rec)
	if !reflect.DeepEqual(plainOut, tracedOut) {
		t.Fatal("attaching a sink changed served results")
	}
	if !reflect.DeepEqual(plainStats, tracedStats) {
		t.Fatal("attaching a sink changed endpoint statistics")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder saw no events")
	}
}

func TestServeEventLifecycle(t *testing.T) {
	rec := obs.NewRecorder()
	e := New(Config{Profile: noJitter, Replicas: 1, MaxBatch: 4,
		MaxWait: 2 * time.Second, CacheTokens: 4096})
	e.SetSink(rec)
	e.Serve(llm.Call{Agent: "a0", Arrival: 0, Prompt: sharedPrompt("a0", 20), OutTokens: 50})
	// Inside the join window: rides the in-flight batch.
	e.Serve(llm.Call{Agent: "a1", Arrival: time.Second, Prompt: sharedPrompt("a1", 20), OutTokens: 50})

	events := rec.Events()
	if err := obs.Validate(events); err != nil {
		t.Fatalf("recorded stream fails validation: %v", err)
	}
	var kinds []obs.Kind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []obs.Kind{
		obs.KindConfig,
		obs.KindSubmit, obs.KindRoute, obs.KindCacheMiss, obs.KindBatchStart, obs.KindComplete,
		obs.KindSubmit, obs.KindRoute, obs.KindCacheHit, obs.KindBatchJoin, obs.KindComplete,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v\nwant %v", kinds, want)
	}
	cfgEv := events[0]
	if cfgEv.Replica != 1 || cfgEv.Active != 1 || cfgEv.Batch != 4 || cfgEv.Tokens != 4096 {
		t.Errorf("config event = %+v", cfgEv)
	}
	// The route event carries one pressure score per active replica, taken
	// before admission touched the cache.
	if route := events[2]; len(route.Scores) != 1 || route.Req != 1 {
		t.Errorf("route event = %+v", route)
	}
	// The joiner's cache hit sees the first request's warm shared prefix.
	if hit := events[8]; hit.Cached < 300 || hit.Cached > hit.Tokens {
		t.Errorf("join cache hit = %+v, want >= 300 warm tokens", hit)
	}
	join := events[9]
	if join.Req != 2 || join.Batch != 2 || join.Dur <= 0 {
		t.Errorf("batch_join event = %+v", join)
	}
	// Completes carry as-served values consistent with the returned Served.
	first := events[5]
	if first.Req != 1 || first.Batch != 1 || first.Wait != 0 || first.T != first.Dur {
		t.Errorf("first complete = %+v", first)
	}
	// Request ids survive Reset's zeroing.
	e.Reset()
	rec.Reset()
	e.Serve(llm.Call{Agent: "a0", Arrival: 0, Prompt: sharedPrompt("a0", 20), OutTokens: 50})
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindSubmit && ev.Req != 1 {
			t.Errorf("request ids not reset: %+v", ev)
		}
	}
}

func TestBatchSealEvent(t *testing.T) {
	rec := obs.NewRecorder()
	e := New(Config{Profile: noJitter, Replicas: 1, MaxBatch: 4, MaxWait: time.Second})
	e.SetSink(rec)
	e.Serve(llm.Call{Agent: "a", Arrival: 0, Prompt: sharedPrompt("a", 20), OutTokens: 50})
	// Far outside the join window: the new batch seals the old frontier.
	e.Serve(llm.Call{Agent: "a", Arrival: time.Hour, Prompt: sharedPrompt("a", 20), OutTokens: 50})
	var seals int
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindBatchSeal {
			seals++
			if ev.Batch != 1 {
				t.Errorf("seal batch = %d, want 1", ev.Batch)
			}
		}
	}
	if seals != 1 {
		t.Fatalf("seal events = %d, want 1", seals)
	}
}

func TestFleetAdmitEvents(t *testing.T) {
	rec := obs.NewRecorder()
	f := NewFleet(Config{Profile: noJitter, Replicas: 2, MaxBatch: 2, MaxWait: time.Second}, 2)
	f.SetSink(rec)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := f.Client(1)
		defer c.Finish()
		c.Serve(llm.Call{Agent: "b", Arrival: 500 * time.Millisecond,
			Prompt: sharedPrompt("b", 30), OutTokens: 40})
	}()
	c0 := f.Client(0)
	c0.Serve(llm.Call{Agent: "a", Arrival: 0, Prompt: sharedPrompt("a", 30), OutTokens: 40})
	c0.Finish()
	<-done

	var admits []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindAdmit {
			admits = append(admits, ev)
		}
	}
	if len(admits) != 2 {
		t.Fatalf("admit events = %d, want 2 (one per client call)", len(admits))
	}
	// The merge admits in arrival order: client 0 at t=0, client 1 at 0.5s.
	if admits[0].Client != 0 || admits[1].Client != 1 {
		t.Errorf("admit clients = %d,%d, want 0,1", admits[0].Client, admits[1].Client)
	}
	if admits[0].T != 0 || admits[1].T != 500*time.Millisecond {
		t.Errorf("admit times = %v,%v", admits[0].T, admits[1].T)
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Fatalf("fleet stream fails validation: %v", err)
	}
}

func TestShardedFleetSinkTagsShards(t *testing.T) {
	rec := obs.NewRecorder()
	sf := NewShardedFleet(Config{Profile: noJitter, Replicas: 1}, 4, 2)
	sf.SetSink(rec)
	shards := map[int]bool{}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindConfig {
			shards[ev.Shard] = true
		}
	}
	if len(shards) != 2 || !shards[0] || !shards[1] {
		t.Fatalf("config events tagged shards %v, want {0,1}", shards)
	}
}

func TestAutoscaleEvents(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := Config{Profile: noJitter, Replicas: 4, MaxBatch: 1, CacheEntries: 64,
		Autoscale: Autoscale{Interval: 10 * time.Second, ColdStart: time.Second,
			UpUtil: 0.5, DownUtil: 0.3, Min: 1, Max: 4}}
	// A burst that forces scale-up, then a long quiet tail that scales back
	// down (replayed ticks), finishing with one straggler to extend the run.
	var reqs []Request
	for i := 0; i < 30; i++ {
		reqs = append(reqs, Request{Agent: "a", Arrival: time.Duration(i) * 2 * time.Second,
			Prompt: sharedPrompt("a", 40), OutTokens: 60})
	}
	reqs = append(reqs, Request{Agent: "a", Arrival: 10 * time.Minute,
		Prompt: sharedPrompt("a", 40), OutTokens: 60})
	res := ReplayObserved(cfg, reqs, rec)
	if res.Stats.ScaleUps == 0 || res.Stats.ScaleDowns == 0 {
		t.Skipf("workload did not exercise scaling (ups=%d downs=%d)",
			res.Stats.ScaleUps, res.Stats.ScaleDowns)
	}
	var ticks, ups, downs, flushes int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindScaleTick:
			ticks++
			if ev.Active < 1 {
				t.Errorf("tick with active %d", ev.Active)
			}
		case obs.KindScaleUp:
			ups++
		case obs.KindScaleDown:
			downs++
		case obs.KindCacheFlush:
			flushes++
		}
	}
	if ups != res.Stats.ScaleUps || downs != res.Stats.ScaleDowns {
		t.Errorf("scale events %d up / %d down, stats say %d/%d",
			ups, downs, res.Stats.ScaleUps, res.Stats.ScaleDowns)
	}
	if ticks == 0 {
		t.Error("no evaluation ticks recorded")
	}
	// Every retirement flushes the replica's cache; warm replicas flush
	// tokens.
	if flushes != downs {
		t.Errorf("flush events = %d, want one per scale-down (%d)", flushes, downs)
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Fatalf("autoscaled stream fails validation: %v", err)
	}
}

// TestRecordReplayDeterminism is the flight recorder's round-trip contract:
// a closed-loop run recorded under the exactness conditions (monotone
// arrivals, MaxBatch=1, least-loaded routing — see TraceRequests) and fed
// back through Replay reproduces the live run's serving statistics exactly.
func TestRecordReplayDeterminism(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 1,
		CacheTokens: 4096, Routing: RouteLeastLoaded}
	rec := obs.NewRecorder()
	live := New(cfg)
	live.SetSink(rec)
	calls := monotoneCalls(60)
	for i, c := range calls {
		if i > 0 && c.Arrival < calls[i-1].Arrival {
			t.Fatalf("test workload violates monotone arrivals at %d", i)
		}
		live.Serve(c)
	}
	liveStats := live.Stats()

	reqs, err := TraceRequests(rec.Events())
	if err != nil {
		t.Fatalf("TraceRequests: %v", err)
	}
	if len(reqs) != len(calls) {
		t.Fatalf("trace reconstructed %d requests, want %d", len(reqs), len(calls))
	}
	res := Replay(cfg, reqs)
	if !reflect.DeepEqual(res.Stats, liveStats) {
		t.Fatalf("replayed stats diverge from live run:\n live: %+v\nreplay: %+v",
			liveStats, res.Stats)
	}
}

// TestReplayTraceRoundTrip closes the record-once-replay-many loop in the
// open-loop direction: a replay's own recorded trace, reconstructed and
// replayed again, reproduces the first replay bit for bit. MaxBatch is 1
// because TraceRequests refuses batched recordings outright (see
// TestTraceRequestsRejectsBatchedRecording).
func TestReplayTraceRoundTrip(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 1,
		CacheTokens: 2048, Routing: RouteCacheAffinity,
		Identity: IdentityContent}
	reqs := testTrace(4, 5, 8*time.Second, 200*time.Millisecond)
	rec := obs.NewRecorder()
	first := ReplayObserved(cfg, reqs, rec)

	rebuilt, err := TraceRequests(rec.Events())
	if err != nil {
		t.Fatalf("TraceRequests: %v", err)
	}
	second := Replay(cfg, rebuilt)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replaying a replay's recorded trace diverged")
	}
	// And the sink changed nothing about the replay itself.
	plain := Replay(cfg, reqs)
	if !reflect.DeepEqual(first, plain) {
		t.Fatal("recording a replay changed its result")
	}
}

// FuzzTraceSurface feeds arbitrary bytes through the trace replay surface:
// obs.ReadJSONL, obs.Validate, TraceRequests, then Replay on at most 64 of
// the requests. Every input must parse or error, never panic; a stream
// that validates replays to termination with every request accounted for.
// The seed is a recorded replay.
func FuzzTraceSurface(f *testing.F) {
	cfg, _ := specConfig(nil)
	recCfg := cfg
	recCfg.MaxBatch = 1 // TraceRequests rejects batched recordings
	rec := obs.NewRecorder()
	ReplayObserved(recCfg, GenerateTraffic(Traffic{Seed: 1})[:8], rec)
	var seed bytes.Buffer
	if err := obs.WriteJSONL(&seed, rec.Events()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil || obs.Validate(events) != nil {
			return
		}
		reqs, err := TraceRequests(events)
		if err != nil {
			return
		}
		if len(reqs) > 64 {
			reqs = reqs[:64]
		}
		res := Replay(cfg, reqs)
		s := res.Stats
		if len(res.Completions) != len(reqs) || s.Requests+s.ShedRequests+s.TimedOut != len(reqs) {
			t.Fatalf("%d requests replayed to %d completions, %d served + %d shed + %d timed out",
				len(reqs), len(res.Completions), s.Requests, s.ShedRequests, s.TimedOut)
		}
	})
}
