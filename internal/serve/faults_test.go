package serve

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// faultedCfg is a deliberately hostile resilient deployment for the
// fault tests: crashes every ~40s of uptime per replica, slow repairs,
// frequent 4x straggler episodes, and the full client policy ladder on a
// small pool so every mechanism (crash requeue, retry, hedge, shed,
// timeout) actually fires within a short trace.
func faultedCfg() Config {
	return Config{
		Profile: noJitter, Replicas: 3, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64,
		Faults: Faults{
			MTBF: 40 * time.Second, MTTR: 10 * time.Second,
			StragglerEvery: 30 * time.Second, StragglerFor: 8 * time.Second,
			StragglerFactor: 4, Seed: 9,
		},
		Retry: RetryPolicy{Max: 2, Base: 300 * time.Millisecond, Factor: 2, Jitter: 0.5},
		Hedge: HedgePolicy{Delay: 4 * time.Second},
		Shed:  ShedPolicy{Queue: 30},
	}
}

// faultedTrace is a dense request stream with per-attempt deadlines
// tight enough that repair pile-ups expire them.
func faultedTrace() []Request {
	reqs := testTrace(8, 12, 2*time.Second, 150*time.Millisecond)
	for i := range reqs {
		reqs[i].Deadline = 12 * time.Second
	}
	return reqs
}

// TestFaultsDisabledByteIdentical pins the zero-value contract: a config
// carrying explicitly zero Faults and resilience policies is the SAME
// config as one that never mentions them — identical replay results,
// identical closed-loop outcomes, identical recorded event streams.
func TestFaultsDisabledByteIdentical(t *testing.T) {
	base := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64}
	with := base
	with.Faults, with.Retry, with.Hedge, with.Shed = Faults{}, RetryPolicy{}, HedgePolicy{}, ShedPolicy{}

	reqs := testTrace(6, 6, 4*time.Second, 300*time.Millisecond)
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	a := ReplayObserved(base, reqs, recA)
	b := ReplayObserved(with, reqs, recB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-value fault config changed the replay")
	}
	if !reflect.DeepEqual(recA.Events(), recB.Events()) {
		t.Fatalf("zero-value fault config changed the recorded stream")
	}

	ea, eb := New(base), New(with)
	for _, c := range monotoneCalls(24) {
		ra, rb := ea.Serve(c), eb.Serve(c)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("zero-value fault config changed a closed-loop result: %+v != %+v", ra, rb)
		}
	}
	if !reflect.DeepEqual(ea.Stats(), eb.Stats()) {
		t.Fatalf("zero-value fault config changed closed-loop stats")
	}
}

// TestFaultReplayDeterministicAndValidates drives the replay event loop
// with every fault and policy enabled, under observation, and checks three
// contracts at once: the sink never perturbs the simulation, reruns are
// byte-identical, and the recorded stream passes Validate (monotone Seq,
// per-kind invariants) while exercising every fault/resilience event kind.
func TestFaultReplayDeterministicAndValidates(t *testing.T) {
	cfg, reqs := faultedCfg(), faultedTrace()
	rec := obs.NewRecorder()
	a := ReplayObserved(cfg, reqs, rec)
	b := Replay(cfg, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("attaching a sink perturbed the fault-injected replay")
	}
	if c := Replay(cfg, reqs); !reflect.DeepEqual(b, c) {
		t.Fatalf("identical fault-injected replays diverged")
	}

	evs := rec.Events()
	if err := obs.Validate(evs); err != nil {
		t.Fatalf("fault-injected stream fails validation: %v", err)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindReplicaDown, obs.KindReplicaUp, obs.KindRetry,
		obs.KindHedge, obs.KindShed, obs.KindTimeout,
	} {
		if kinds[k] == 0 {
			t.Errorf("stream has no %s events — config not hostile enough for the test", k)
		}
	}
	if kinds[obs.KindReplicaDown] != kinds[obs.KindReplicaUp] {
		t.Errorf("replica_down/up events unbalanced: %d/%d",
			kinds[obs.KindReplicaDown], kinds[obs.KindReplicaUp])
	}

	// The stats carry the same story the stream does.
	s := a.Stats
	if s.Retries == 0 || s.HedgesIssued == 0 || s.ShedRequests == 0 ||
		s.TimedOut == 0 || s.FailedBatches == 0 || s.ReplicaDowntime == 0 {
		t.Errorf("resilience counters missing activity: %+v", s)
	}
	if s.HedgeWins > s.HedgesIssued {
		t.Errorf("hedge wins %d exceed hedges issued %d", s.HedgeWins, s.HedgesIssued)
	}
}

// downTimes extracts each replica's crash-window start times in order.
func downTimes(evs []obs.Event) map[int][]time.Duration {
	out := map[int][]time.Duration{}
	for _, ev := range evs {
		if ev.Kind == obs.KindReplicaDown {
			out[ev.Replica] = append(out[ev.Replica], ev.T)
		}
	}
	return out
}

// TestFaultScheduleTrafficIndependent pins the core schedule property:
// fault windows are a pure function of (Faults.Seed, replica slot), so
// two entirely different workloads replayed under the same fault config
// crash at the same virtual times — the shorter run's per-replica crash
// sequence is a prefix of the longer run's.
func TestFaultScheduleTrafficIndependent(t *testing.T) {
	cfg := faultedCfg()
	// No shedding/deadlines needed here; keep every request so the two
	// traces differ only in traffic shape.
	cfg.Shed = ShedPolicy{}
	short := testTrace(4, 6, 3*time.Second, 250*time.Millisecond)
	long := testTrace(9, 14, 2*time.Second, 100*time.Millisecond)

	recS, recL := obs.NewRecorder(), obs.NewRecorder()
	ReplayObserved(cfg, short, recS)
	ReplayObserved(cfg, long, recL)
	ds, dl := downTimes(recS.Events()), downTimes(recL.Events())
	if len(dl) == 0 {
		t.Fatalf("long run recorded no crashes")
	}
	for ri, ts := range ds {
		tl := dl[ri]
		a, b := ts, tl
		if len(a) > len(b) {
			a, b = b, a
		}
		if !reflect.DeepEqual(a, b[:len(a)]) {
			t.Errorf("replica %d: crash schedules diverge across workloads:\n short: %v\n  long: %v", ri, ts, tl)
		}
	}
}

// TestServingMergeSumsResilienceCounters pins the fleet-merge exactness
// of the new counters: merging two runs' Serving stats sums every
// resilience field exactly, in either merge order.
func TestServingMergeSumsResilienceCounters(t *testing.T) {
	cfg := faultedCfg()
	a := Replay(cfg, faultedTrace()).Stats
	cfg.Faults.Seed = 23
	b := Replay(cfg, testTrace(5, 9, 3*time.Second, 120*time.Millisecond)).Stats

	m := a.Merge(b)
	if m.ShedRequests != a.ShedRequests+b.ShedRequests ||
		m.Retries != a.Retries+b.Retries ||
		m.HedgesIssued != a.HedgesIssued+b.HedgesIssued ||
		m.HedgeWins != a.HedgeWins+b.HedgeWins ||
		m.TimedOut != a.TimedOut+b.TimedOut ||
		m.FailedBatches != a.FailedBatches+b.FailedBatches ||
		m.ReplicaDowntime != a.ReplicaDowntime+b.ReplicaDowntime {
		t.Fatalf("merge does not sum resilience counters exactly:\n a: %+v\n b: %+v\n m: %+v", a, b, m)
	}
	if r := b.Merge(a); !reflect.DeepEqual(m, r) {
		t.Fatalf("resilience-counter merge is order-dependent")
	}
}

// TestRetryBackoffSaturates: the backoff grows to a ceiling and stays
// there instead of wrapping negative once Base·Factor^k leaves
// time.Duration's range (retry 36 on, with the default policy).
func TestRetryBackoffSaturates(t *testing.T) {
	for _, p := range []RetryPolicy{
		{Max: 2},
		{Max: 2, Factor: 1e300},
		{Max: 2, Base: 10000 * time.Hour, Factor: 1.5},
	} {
		p = p.withDefaults()
		var prev time.Duration
		for k := 0; k <= 64; k++ {
			d := p.backoff(k, nil)
			if d < prev {
				t.Fatalf("%+v: backoff(%d) = %v after backoff(%d) = %v", p, k, d, k-1, prev)
			}
			prev = d
		}
	}
}

// TestValidateAcceptsResilientDisagg pins the scope boundary: faults, the
// autoscaler and client resilience compose with disaggregated pools, and
// only a monolithic replica count beside the pools is a contradiction.
func TestValidateAcceptsResilientDisagg(t *testing.T) {
	base := Config{Profile: noJitter,
		Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}}
	for name, mut := range map[string]func(*Config){
		"faults":    func(c *Config) { c.Faults = Faults{MTBF: time.Minute} },
		"autoscale": func(c *Config) { c.Autoscale = Autoscale{Interval: time.Second, Max: 2} },
		"retry":     func(c *Config) { c.Retry = RetryPolicy{Max: 1} },
		"hedge":     func(c *Config) { c.Hedge = HedgePolicy{Delay: time.Second} },
		"shed":      func(c *Config) { c.Shed = ShedPolicy{Queue: 1} },
	} {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s + disaggregation rejected: %v", name, err)
		}
		cfg.Replicas = 2
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s + disaggregation + Replicas 2 validated; want an error", name)
		}
	}
}

// TestThroughputCountsServedOnly pins Throughput to served requests: a
// shedding replay of an overloaded trace must not count the requests it
// rejected as throughput.
func TestThroughputCountsServedOnly(t *testing.T) {
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: 64, Horizon: 30 * time.Minute, Seed: 3})
	res := Replay(Config{Profile: noJitter, Replicas: 1, Shed: ShedPolicy{Queue: 4}}, reqs)
	served := 0
	for _, c := range res.Completions {
		if c.Outcome == OutcomeServed {
			served++
		}
	}
	if res.Stats.ShedRequests == 0 || served == len(reqs) {
		t.Fatalf("trace did not overload the replica: %d shed, %d/%d served",
			res.Stats.ShedRequests, served, len(reqs))
	}
	if served != res.Stats.Requests {
		t.Fatalf("served completions %d != Stats.Requests %d", served, res.Stats.Requests)
	}
	if got, want := res.Throughput(), float64(served)/res.Makespan.Seconds(); got != want {
		t.Fatalf("Throughput() = %v req/s, want %v (served %d of %d over %v)",
			got, want, served, len(reqs), res.Makespan)
	}
}

// TestRetryTimesStayRepresentable: a retry budget in the hundreds against
// replicas that are almost always down would spend hundreds of saturated
// backoffs, whose sum is past time.Duration's range. Retries stop at
// maxSpecDuration after arrival instead of wrapping negative, so every
// resolution comes after its arrival, within the span plus one deadline,
// and the makespan and downtime stay non-negative.
func TestRetryTimesStayRepresentable(t *testing.T) {
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: 2, Horizon: time.Hour, Rate: 1.0 / 60, Seed: 1})[:20]
	for i := range reqs {
		reqs[i].Deadline = 40 * time.Second
	}
	res := Replay(Config{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Second,
		Faults: Faults{MTBF: time.Second, MTTR: 10000 * time.Hour},
		Retry:  RetryPolicy{Max: 300, Base: 500 * time.Millisecond, Factor: 2, Jitter: 0.2},
	}, reqs)
	for i, c := range res.Completions {
		if c.Done < c.Arrival {
			t.Errorf("request %d (%s): Done %v before Arrival %v", i, c.Outcome, c.Done, c.Arrival)
		}
		if c.Done-c.Arrival > maxSpecDuration+reqs[i].Deadline {
			t.Errorf("request %d: resolved %v after arrival, past the retry span", i, c.Done-c.Arrival)
		}
	}
	if res.Makespan < 0 || res.Stats.ReplicaDowntime < 0 {
		t.Errorf("Makespan = %v, ReplicaDowntime = %v, want both >= 0", res.Makespan, res.Stats.ReplicaDowntime)
	}
	s := res.Stats
	if s.Requests+s.ShedRequests+s.TimedOut != len(reqs) {
		t.Errorf("served %d + shed %d + timed out %d != offered %d", s.Requests, s.ShedRequests, s.TimedOut, len(reqs))
	}
	// A deadline too long to add to the arrival never expires, even for a
	// request queued behind another.
	queued := []Request{reqs[1], reqs[1]}
	queued[1].Deadline = never
	if c := Replay(Config{Profile: noJitter}, queued).Completions[1]; c.Outcome != OutcomeServed || c.Done < c.Arrival {
		t.Errorf("deadline %v: outcome %q, Done %v, Arrival %v; want served after arrival", never, c.Outcome, c.Done, c.Arrival)
	}
}

// TestRetryJitterMatchesFreshStreams is the differential test of pooled
// retry jitter: the replay re-seeds a resolved request's stream for the
// next retried request, and every recorded backoff must still equal the
// one a fresh per-request stream prices.
func TestRetryJitterMatchesFreshStreams(t *testing.T) {
	cfg := faultedCfg()
	cfg.Retry.Max = 5
	reqs := faultedTrace()
	rec := obs.NewRecorder()
	res := ReplayObserved(cfg, reqs, rec)
	policy := New(cfg).Config().Retry
	src := rng.New(cfg.Faults.Seed).Sub("serve/retry")
	fresh := map[int64]*rng.Stream{}
	firstRetry := map[int64]time.Duration{}
	retries := 0
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindRetry {
			continue
		}
		retries++
		st := fresh[ev.Req]
		if st == nil {
			st = src.NewStream(fmt.Sprintf("req-%d", ev.Req-1))
			fresh[ev.Req] = st
			firstRetry[ev.Req] = ev.T - ev.Dur
		}
		if want := policy.backoff(ev.Batch-1, st); ev.Dur != want {
			t.Fatalf("request %d retry %d: backoff %v, fresh stream prices %v", ev.Req, ev.Batch, ev.Dur, want)
		}
	}
	// Reuse happened only if some request first retried after another
	// retried request had already resolved and released its stream.
	reused := false
	for a, ta := range firstRetry {
		for b := range firstRetry {
			if a != b && res.Completions[b-1].Done < ta {
				reused = true
			}
		}
	}
	if retries == 0 || res.Stats.HedgesIssued == 0 || !reused {
		t.Fatalf("trace did not exercise stream reuse: %d retries over %d requests, %d hedges, reused=%v",
			retries, len(fresh), res.Stats.HedgesIssued, reused)
	}
}

// BenchmarkReplayObservedFaults is fig14's faulted cell (3 minute MTBF
// with stragglers, retry+hedge+shed, 40 s deadlines, 24 bursty tenants
// over 30 minutes on the 2-8 replica autoscaled deployment) replayed into
// a fresh flight recorder per op: the resilient event loop plus recorder
// writes.
func BenchmarkReplayObservedFaults(b *testing.B) {
	cfg := fig12Autoscaled()
	cfg.Faults = Faults{
		MTBF: 3 * time.Minute, MTTR: 60 * time.Second,
		StragglerEvery: 90 * time.Second, StragglerFor: 20 * time.Second,
		StragglerFactor: 6, Seed: 1,
	}
	cfg.Retry = RetryPolicy{Max: 2, Base: 500 * time.Millisecond, Factor: 2, Jitter: 0.2}
	cfg.Hedge = HedgePolicy{Delay: 10 * time.Second}
	cfg.Shed = ShedPolicy{Wait: 35 * time.Second}
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: 24, Horizon: 30 * time.Minute, Seed: 1})
	for i := range reqs {
		reqs[i].Deadline = 40 * time.Second
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		ReplayObserved(cfg, reqs, rec)
		events += rec.Len()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TestReplicaSpansSaturate drives each per-replica span accumulator past
// time.Duration's range: ReplicaTime at an autoscale tick and at the end
// of a run, and ReplicaDowntime at a crash. Both the running sum and the
// replicas × span product saturate at never instead of wrapping negative.
func TestReplicaSpansSaturate(t *testing.T) {
	as := Autoscale{Interval: time.Hour, Min: 4, Max: 4}
	for _, c := range []struct {
		name     string
		acc, end time.Duration // running sum, and the end of a span from 0
	}{
		{"sum", never - time.Hour, 2 * time.Hour},
		{"product", 0, never / 2},
	} {
		tick := New(Config{Replicas: 4, Autoscale: as})
		tick.stats.ReplicaTime = c.acc
		tick.evalAutoscale(c.end)
		if got := tick.stats.ReplicaTime; got != never {
			t.Errorf("%s: ReplicaTime after a tick = %v, want saturated at %v", c.name, got, never)
		}
		fin := New(Config{Replicas: 4, Autoscale: as})
		fin.stats.ReplicaTime, fin.asNext = c.acc, never
		fin.finishAutoscale(c.end)
		if got := fin.stats.ReplicaTime; got != never {
			t.Errorf("%s: ReplicaTime after finish = %v, want saturated at %v", c.name, got, never)
		}
	}
	e := New(Config{Replicas: 2, Faults: Faults{MTBF: time.Second, MTTR: time.Hour}})
	e.stats.ReplicaDowntime = never - time.Hour
	e.crashReplica(&e.replicas[0], 0, faultWindow{start: time.Hour, end: 3 * time.Hour}, 0)
	if got := e.stats.ReplicaDowntime; got != never {
		t.Errorf("ReplicaDowntime after a crash = %v, want saturated at %v", got, never)
	}
	e.crashReplica(&e.replicas[1], 1, faultWindow{start: 0, end: time.Minute}, 0)
	if got := e.stats.ReplicaDowntime; got != never {
		t.Errorf("ReplicaDowntime after a second crash = %v, want it to stay at %v", got, never)
	}
	// In range, the sum stays exact.
	small := New(Config{Replicas: 2, Faults: Faults{MTBF: time.Second, MTTR: time.Hour}})
	small.crashReplica(&small.replicas[0], 0, faultWindow{start: time.Hour, end: 3 * time.Hour}, 0)
	if got := small.stats.ReplicaDowntime; got != 2*time.Hour {
		t.Errorf("in-range ReplicaDowntime = %v, want 2h", got)
	}
}

// TestStragglerMemoBounded bounds the straggler process's time and memory.
// A repair time of 10^8 straggler gaps (mtbf=1s,mttr=10000h,straggle=1s:
// the last batch launches some 16,000 h in) is rejected by maxRepairGaps;
// a repair at the rule's limit replays quickly. Windows a second apart over
// a 1000 h trace stay within 64 MB of allocation, since the process keeps
// only the window after the latest query, not every window it drew.
func TestStragglerMemoBounded(t *testing.T) {
	const spec = "mtbf=1s,mttr=10000h,straggle=1s,for=1ns"
	if f, err := ParseFaults(spec); err == nil {
		t.Errorf("ParseFaults(%q) = %+v, want a repair-gap error", spec, f)
	}
	over := Faults{MTBF: time.Second, MTTR: 10000 * time.Hour, StragglerEvery: time.Second}
	if err := (Config{Faults: over}).Validate(); err == nil {
		t.Errorf("Validate accepted faults %+v", over)
	}
	edge, err := ParseFaults("mtbf=1s,mttr=10000h,straggle=360s,for=1ns")
	if err != nil {
		t.Fatal(err)
	}
	long := GenerateTraffic(Traffic{Seed: 1, Tenants: 1, Horizon: 1000 * time.Hour, Rate: 1.0 / (50 * 3600)})
	for _, c := range []struct {
		name string
		f    Faults
		reqs []Request
	}{
		{"mttr at the gap limit", edge, GenerateTraffic(Traffic{Seed: 1})[:20]},
		{"1s gaps over 1000h", Faults{StragglerEvery: time.Second, StragglerFor: time.Millisecond}, long},
	} {
		cfg, _ := specConfig(c.f)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Replay(cfg, c.reqs)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
			t.Errorf("%s: replay allocated %d MB (makespan %v), want at most 64 MB", c.name, got>>20, res.Makespan)
		}
		if s := res.Stats; s.Requests != len(c.reqs) {
			t.Errorf("%s: served %d of %d requests", c.name, s.Requests, len(c.reqs))
		}
	}
}
