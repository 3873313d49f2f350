package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// pricingTolerance bounds the float rounding gap between the stage-split
// and monolithic pricings of one request: the monolithic path converts one
// float seconds value to a Duration, the disaggregated path converts one
// per stage, so the sums may differ by a nanosecond per conversion.
const pricingTolerance = 2 * time.Nanosecond

func within(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// spacedTrace builds one request stream whose gaps always exceed the
// worst-case end-to-end service time, so no queueing or batching forms on
// either deployment and the comparison isolates pure pricing.
func spacedTrace(n int, seed uint64) []Request {
	jitter := rng.New(seed).NewStream("disagg/spaced")
	var reqs []Request
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += 20*time.Second + time.Duration(jitter.Range(0, 5000))*time.Millisecond
		reqs = append(reqs, Request{
			Agent:   "a0",
			Arrival: at,
			Prompt:  sharedPrompt("a0", 50+int(jitter.Range(0, 300))),
			// noJitter decodes at 10 tok/s: keep the decode term under the
			// 20s spacing.
			OutTokens: 30 + int(jitter.Range(0, 60)),
		})
	}
	return reqs
}

// disaggZero splits cfg into a zero-handoff (replicas, replicas)
// disaggregated deployment with the same batching knobs on both pools.
func disaggZero(cfg Config) Config {
	d := cfg
	d.Prefill = PoolConfig{Replicas: cfg.Replicas, MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait}
	d.Decode = PoolConfig{Replicas: cfg.Replicas, MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait}
	d.Replicas = 0
	return d
}

// TestDisaggZeroHandoffReproducesMonolithic is the randomized differential
// of the acceptance criterion: with a free handoff, shared pool sizing and
// no contention (spaced arrivals, MaxBatch 1), the disaggregated pipeline
// prices every request within float-conversion tolerance of the monolithic
// endpoint, and the flow totals agree.
func TestDisaggZeroHandoffReproducesMonolithic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		mcfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 1, CacheEntries: 64}
		reqs := spacedTrace(12, seed)
		mono := Replay(mcfg, reqs)
		dis := Replay(disaggZero(mcfg), reqs)
		if len(mono.Completions) != len(dis.Completions) {
			t.Fatalf("seed %d: completion counts differ", seed)
		}
		var monoSvc, disSvc time.Duration
		for i := range reqs {
			mc, dc := mono.Completions[i], dis.Completions[i]
			mlat, dlat := mc.Done-mc.Arrival, dc.Done-dc.Arrival
			if !within(mlat, dlat, pricingTolerance) {
				t.Fatalf("seed %d req %d: latency %v (mono) vs %v (disagg)", seed, i, mlat, dlat)
			}
			if mc.PromptTokens != dc.PromptTokens || mc.CachedTokens != dc.CachedTokens {
				t.Fatalf("seed %d req %d: token accounting diverged: %+v vs %+v", seed, i, mc, dc)
			}
			if dc.QueueWait != 0 || dc.DecodeWait != 0 {
				t.Fatalf("seed %d req %d: spaced trace queued: %+v", seed, i, dc)
			}
			monoSvc += mlat
			disSvc += dlat
		}
		if !within(monoSvc, disSvc, time.Duration(len(reqs))*pricingTolerance) {
			t.Fatalf("seed %d: total latency %v vs %v", seed, monoSvc, disSvc)
		}
		ms, ds := mono.Stats, dis.Stats
		if ms.Requests != ds.Requests || ms.PrefillTokens != ds.PrefillTokens ||
			ms.CachedTokens != ds.CachedTokens {
			t.Fatalf("seed %d: flow totals diverged:\nmono %+v\ndisagg %+v", seed, ms, ds)
		}
		if !within(ms.Service, ds.Service, time.Duration(len(reqs))*pricingTolerance) {
			t.Fatalf("seed %d: service %v vs %v", seed, ms.Service, ds.Service)
		}
		if ds.HandoffTime != 0 || ds.HandoffTokens != ms.PrefillTokens {
			t.Fatalf("seed %d: zero handoff accounted %v over %d tokens",
				seed, ds.HandoffTime, ds.HandoffTokens)
		}
	}
}

// TestDisaggClosedLoopZeroHandoffMatches runs the same differential
// through the closed-loop Backend path (Endpoint.Serve).
func TestDisaggClosedLoopZeroHandoffMatches(t *testing.T) {
	mcfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 1, CacheEntries: 64}
	mono, dis := New(mcfg), New(disaggZero(mcfg))
	for i, r := range spacedTrace(10, 3) {
		call := llm.Call{Agent: r.Agent, Arrival: r.Arrival, Prompt: r.Prompt, OutTokens: r.OutTokens}
		ms, ds := mono.Serve(call), dis.Serve(call)
		if !within(ms.Latency, ds.Latency, pricingTolerance) {
			t.Fatalf("req %d: latency %v vs %v", i, ms.Latency, ds.Latency)
		}
		if ms.PromptTokens != ds.PromptTokens || ms.CachedTokens != ds.CachedTokens {
			t.Fatalf("req %d: token split diverged: %+v vs %+v", i, ms, ds)
		}
		// The whole stage-2 latency is the overlappable window here.
		if ds.Decode <= 0 || ds.Decode >= ds.Latency {
			t.Fatalf("req %d: disagg decode window %v of %v", i, ds.Decode, ds.Latency)
		}
	}
}

// TestDisaggOffIsMonolithic pins "disaggregation disabled changes
// nothing": a config without pools builds no disaggregated state and its
// serving results are DeepEqual to the seed monolithic path.
func TestDisaggOffIsMonolithic(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4, MaxWait: time.Second, CacheEntries: 64}
	if New(cfg).dis != nil {
		t.Fatal("pool-less config built disaggregated state")
	}
	reqs := testTrace(4, 5, 8*time.Second, 200*time.Millisecond)
	a, b := Replay(cfg, reqs), Replay(cfg, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("monolithic replay not reproducible")
	}
	for _, c := range a.Completions {
		if c.PrefillDone != 0 || c.DecodeWait != 0 {
			t.Fatalf("monolithic completion carries stage fields: %+v", c)
		}
	}
	s := a.Stats
	if s.PrefillService != 0 || s.DecodeService != 0 || s.PrefillWait != 0 ||
		s.DecodeWait != 0 || s.HandoffTime != 0 || s.HandoffTokens != 0 {
		t.Fatalf("monolithic stats carry stage fields: %+v", s)
	}
}

// TestDisaggDeterministic: identical disaggregated runs are DeepEqual —
// completions, batches and folded statistics.
func TestDisaggDeterministic(t *testing.T) {
	cfg := Config{Profile: noJitter, MaxBatch: 1, CacheEntries: 64,
		Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
		Decode:  PoolConfig{Replicas: 1, MaxBatch: 4, MaxWait: time.Second},
		Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000},
	}
	reqs := testTrace(4, 5, 8*time.Second, 200*time.Millisecond)
	a, b := Replay(cfg, reqs), Replay(cfg, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical disaggregated replays diverged")
	}
	x, y := New(cfg), New(cfg)
	for _, r := range reqs {
		call := llm.Call{Agent: r.Agent, Arrival: r.Arrival, Prompt: r.Prompt, OutTokens: r.OutTokens}
		if sx, sy := x.Serve(call), y.Serve(call); !reflect.DeepEqual(sx, sy) {
			t.Fatalf("closed-loop serve diverged: %+v vs %+v", sx, sy)
		}
	}
	if !reflect.DeepEqual(x.Stats(), y.Stats()) {
		t.Fatal("closed-loop stats diverged")
	}
}

// TestHandoffCost pins the pricing formula exactly.
func TestHandoffCost(t *testing.T) {
	h := Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}
	if got := h.cost(300); got != 40*time.Millisecond+1500*time.Microsecond {
		t.Fatalf("cost(300) = %v", got)
	}
	if got := h.cost(0); got != 40*time.Millisecond {
		t.Fatalf("cost(0) = %v", got)
	}
	if got := (Handoff{}).cost(1000); got != 0 {
		t.Fatalf("zero handoff cost = %v", got)
	}
	if got := (Handoff{Latency: time.Second}).cost(500); got != time.Second {
		t.Fatalf("rate-free cost = %v", got)
	}
}

// TestDisaggHandoffPriced: with an uncontended trace, the disaggregated
// end-to-end latency is the zero-handoff latency plus exactly the priced
// transfer.
func TestDisaggHandoffPriced(t *testing.T) {
	mcfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 1, CacheEntries: 64}
	h := Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}
	paid := disaggZero(mcfg)
	paid.Handoff = h
	reqs := spacedTrace(6, 9)
	free := Replay(disaggZero(mcfg), reqs)
	cost := Replay(paid, reqs)
	for i := range reqs {
		fc, cc := free.Completions[i], cost.Completions[i]
		want := (fc.Done - fc.Arrival) + h.cost(fc.PromptTokens)
		if got := cc.Done - cc.Arrival; got != want {
			t.Fatalf("req %d: latency %v, want %v (handoff %v)", i, got, want, h.cost(fc.PromptTokens))
		}
	}
	wantTime := time.Duration(0)
	for _, c := range free.Completions {
		wantTime += h.cost(c.PromptTokens)
	}
	if cost.Stats.HandoffTime != wantTime {
		t.Fatalf("HandoffTime = %v, want %v", cost.Stats.HandoffTime, wantTime)
	}
}

// TestDisaggDecodePriorityAdmission: when a burst clears prefill together,
// the decode pool's admission queue orders by Request.Priority — the
// decode stage is where priority scheduling bites.
func TestDisaggDecodePriorityAdmission(t *testing.T) {
	const n = 4
	cfg := Config{Profile: noJitter, CacheEntries: 64,
		// Enough prefill replicas that the burst prefills in parallel and
		// hands off simultaneously; one decode replica, no batching, so
		// decode admits strictly by the queue order.
		Prefill: PoolConfig{Replicas: n, MaxBatch: 1},
		Decode:  PoolConfig{Replicas: 1, MaxBatch: 1},
	}
	var reqs []Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			Agent:    fmt.Sprintf("a%d", i),
			Priority: n - 1 - i, // submission order is the REVERSE of priority
			Arrival:  0,
			Prompt: prompt.New(
				prompt.Section{Name: "system", Tokens: 200},
			),
			OutTokens: 50,
		})
	}
	res := Replay(cfg, reqs)
	for i := range res.Completions {
		if res.Completions[i].PrefillDone != res.Completions[0].PrefillDone {
			t.Fatalf("burst did not hand off together: %+v", res.Completions)
		}
	}
	// Decode completion order must follow priority: request n-1 (priority
	// 0) first, request 0 (priority n-1) last.
	for i := 1; i < n; i++ {
		if res.Completions[i].Done >= res.Completions[i-1].Done {
			t.Fatalf("decode order ignores priority: req %d done %v, req %d done %v",
				i, res.Completions[i].Done, i-1, res.Completions[i-1].Done)
		}
	}
}

// TestDisaggFold checks the folded statistics' internal consistency.
func TestDisaggFold(t *testing.T) {
	cfg := Config{Profile: noJitter, CacheEntries: 64,
		Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
		Decode:  PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
		Handoff: Handoff{Latency: 10 * time.Millisecond},
	}
	reqs := testTrace(4, 5, 8*time.Second, 200*time.Millisecond)
	res := Replay(cfg, reqs)
	s := res.Stats
	if s.Requests != len(reqs) {
		t.Fatalf("Requests = %d, want %d", s.Requests, len(reqs))
	}
	if s.Replicas != 4 {
		t.Fatalf("Replicas = %d, want 4 (2 prefill + 2 decode)", s.Replicas)
	}
	if len(s.ReplicaRequests) != 4 {
		t.Fatalf("ReplicaRequests = %v", s.ReplicaRequests)
	}
	if s.Service != s.PrefillService+s.DecodeService {
		t.Fatalf("Service %v != prefill %v + decode %v", s.Service, s.PrefillService, s.DecodeService)
	}
	if s.QueueWait != s.PrefillWait+s.DecodeWait {
		t.Fatalf("QueueWait %v != prefill %v + decode %v", s.QueueWait, s.PrefillWait, s.DecodeWait)
	}
	if s.PrefillService <= 0 || s.DecodeService <= 0 {
		t.Fatalf("stage service not split: %+v", s)
	}
	if s.HandoffTime != time.Duration(len(reqs))*10*time.Millisecond {
		t.Fatalf("HandoffTime = %v", s.HandoffTime)
	}
	var prompts int
	for _, c := range res.Completions {
		prompts += c.PromptTokens
		if c.PrefillDone <= c.Start || c.Done < c.PrefillDone {
			t.Fatalf("stage timeline out of order: %+v", c)
		}
		if c.QueueWait != c.Start-c.Arrival {
			t.Fatalf("prefill-stage wait invariant broken: %+v", c)
		}
	}
	if s.HandoffTokens != prompts {
		t.Fatalf("HandoffTokens = %d, want %d", s.HandoffTokens, prompts)
	}
}

// TestStageProfiles pins the stage split: prefill keeps overhead+prefill,
// decode keeps only the decode term, and a FixedLatency profile charges
// entirely in prefill.
func TestStageProfiles(t *testing.T) {
	pre, dec := stageProfiles(noJitter)
	if pre.DecodeRate != 0 || pre.Overhead != noJitter.Overhead || pre.PrefillRate != noJitter.PrefillRate {
		t.Fatalf("prefill profile = %+v", pre)
	}
	if dec.Overhead != 0 || dec.PrefillRate != 0 || dec.DecodeRate != noJitter.DecodeRate {
		t.Fatalf("decode profile = %+v", dec)
	}
	whole := noJitter.BatchServiceTime(1, 1000, 50)
	split := pre.BatchServiceTime(1, 1000, 50) + dec.BatchServiceTime(1, 0, 50)
	if !within(whole, split, pricingTolerance) {
		t.Fatalf("stage pricing %v != monolithic %v", split, whole)
	}

	fixed := llm.Profile{Name: "fixed", FixedLatency: 3 * time.Second}
	fpre, fdec := stageProfiles(fixed)
	if fpre.BatchServiceTime(1, 500, 50) != 3*time.Second {
		t.Fatal("fixed profile should charge wholly in prefill")
	}
	if got := fdec.BatchServiceTime(1, 0, 50); got != 0 {
		t.Fatalf("fixed profile's decode stage should be free, got %v", got)
	}
}

// TestConfigValidate covers every rejection branch the CLI leans on.
func TestConfigValidate(t *testing.T) {
	valid := Config{Profile: noJitter,
		Prefill: PoolConfig{Replicas: 2},
		Decode:  PoolConfig{Replicas: 1},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid disaggregated config rejected: %v", err)
	}
	if err := (Config{Profile: noJitter, Replicas: 2}).Validate(); err != nil {
		t.Fatalf("valid monolithic config rejected: %v", err)
	}
	bad := map[string]Config{
		"prefill only":              {Prefill: PoolConfig{Replicas: 2}},
		"decode only":               {Decode: PoolConfig{Replicas: 2}},
		"pools plus replicas":       {Replicas: 2, Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}},
		"negative prefill replicas": {Prefill: PoolConfig{Replicas: -1}, Decode: PoolConfig{Replicas: 1}},
		"negative decode batch":     {Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1, MaxBatch: -4}},
		"negative prefill wait":     {Prefill: PoolConfig{Replicas: 1, MaxWait: -time.Second}, Decode: PoolConfig{Replicas: 1}},
		"negative pool cache":       {Prefill: PoolConfig{Replicas: 1, CacheTokens: -1}, Decode: PoolConfig{Replicas: 1}},
		"negative handoff latency":  {Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}, Handoff: Handoff{Latency: -time.Second}},
		"negative handoff rate":     {Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}, Handoff: Handoff{TokensPerSec: -5}},
		// The spec number rules hold for programmatic configs too.
		"NaN handoff rate":       {Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}, Handoff: Handoff{TokensPerSec: math.NaN()}},
		"sub-unit handoff rate":  {Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}, Handoff: Handoff{TokensPerSec: 1e-300}},
		"NaN cached prefill":     {Replicas: 1, CachedPrefillFrac: math.NaN()},
		"cached prefill above 1": {Replicas: 1, CachedPrefillFrac: 1.5},
		"NaN autoscale up":       {Replicas: 2, Autoscale: Autoscale{Interval: 10 * time.Second, UpUtil: math.NaN()}},
		"autoscale down above 1": {Replicas: 2, Autoscale: Autoscale{Interval: 10 * time.Second, DownUtil: 2}},
		"sub-second autoscale":   {Replicas: 2, Autoscale: Autoscale{Interval: time.Millisecond}},
		"Inf straggler factor":   {Replicas: 1, Faults: Faults{StragglerEvery: time.Minute, StragglerFactor: math.Inf(1)}},
		"huge straggler factor":  {Replicas: 1, Faults: Faults{StragglerEvery: time.Minute, StragglerFactor: 1e300}},
		"fault mttr over cap":    {Replicas: 1, Faults: Faults{MTBF: time.Minute, MTTR: 20000 * time.Hour}},
		"NaN retry factor":       {Replicas: 1, Retry: RetryPolicy{Max: 2, Factor: math.NaN()}},
		"Inf retry jitter":       {Replicas: 1, Retry: RetryPolicy{Max: 2, Jitter: math.Inf(1)}},
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
}

// TestParseHandoff pins the CLI surface: accepted spellings and the
// rejects, which must return the unusable zero value.
func TestParseHandoff(t *testing.T) {
	for _, s := range []string{"", "off", "  off  "} {
		h, err := ParseHandoff(s)
		if err != nil || h != (Handoff{}) {
			t.Fatalf("ParseHandoff(%q) = %+v, %v; want free, nil", s, h, err)
		}
	}
	h, err := ParseHandoff("lat=40ms,rate=200000")
	if err != nil || h.Latency != 40*time.Millisecond || h.TokensPerSec != 200000 {
		t.Fatalf("ParseHandoff(lat=40ms,rate=200000) = %+v, %v", h, err)
	}
	if h, err = ParseHandoff("rate=1e6"); err != nil || h.TokensPerSec != 1e6 || h.Latency != 0 {
		t.Fatalf("ParseHandoff(rate=1e6) = %+v, %v", h, err)
	}
	for _, bad := range []string{"lat=-1s", "rate=-5", "lat=abc", "rate=abc", "nope", "size=4", "lat"} {
		h, err := ParseHandoff(bad)
		if err == nil {
			t.Fatalf("ParseHandoff(%q) accepted", bad)
		}
		if h != (Handoff{}) {
			t.Fatalf("ParseHandoff(%q) returned usable fallback %+v", bad, h)
		}
	}
}

// TestDisaggObsEvents: a recorded disaggregated replay validates against
// the schema, tags every pool event with its stage, emits one handoff per
// request, and never emits a decode-stage submit (requests must be
// reconstructible exactly once).
func TestDisaggObsEvents(t *testing.T) {
	cfg := Config{Profile: noJitter, CacheEntries: 64,
		Prefill: PoolConfig{Replicas: 2, MaxBatch: 1},
		Decode:  PoolConfig{Replicas: 1, MaxBatch: 1},
		Handoff: Handoff{Latency: 10 * time.Millisecond, TokensPerSec: 100000},
	}
	reqs := testTrace(3, 4, 10*time.Second, 300*time.Millisecond)
	rec := obs.NewRecorder()
	ReplayObserved(cfg, reqs, rec)
	events := rec.Events()
	if err := obs.Validate(events); err != nil {
		t.Fatalf("disaggregated event stream invalid: %v", err)
	}
	var handoffs, submits int
	stages := map[string]bool{}
	for _, ev := range events {
		stages[ev.Stage] = true
		switch ev.Kind {
		case obs.KindHandoff:
			handoffs++
			if ev.Tokens <= 0 || ev.Dur <= 0 || ev.Stage != "handoff" {
				t.Fatalf("malformed handoff event: %+v", ev)
			}
		case obs.KindSubmit:
			submits++
			if ev.Stage != "prefill" {
				t.Fatalf("submit outside the prefill stage: %+v", ev)
			}
		}
	}
	if handoffs != len(reqs) {
		t.Fatalf("handoff events = %d, want %d", handoffs, len(reqs))
	}
	if submits != len(reqs) {
		t.Fatalf("submit events = %d, want %d (decode submits must be dropped)", submits, len(reqs))
	}
	if !stages["prefill"] || !stages["decode"] {
		t.Fatalf("missing stage tags; saw %v", stages)
	}
}

// TestMonolithicJSONLHasNoStage pins traced-run byte-identity: a
// monolithic recording marshals without any stage key.
func TestMonolithicJSONLHasNoStage(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 1, CacheEntries: 64}
	rec := obs.NewRecorder()
	ReplayObserved(cfg, testTrace(2, 3, 10*time.Second, time.Second), rec)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"stage"`) {
		t.Fatal("monolithic trace JSONL mentions stage")
	}
}

// TestTraceRequestsRejectsBatchedRecording: recordings made with
// MaxBatch > 1 cannot be reconstructed (join-window races) and must be
// refused with a descriptive error.
func TestTraceRequestsRejectsBatchedRecording(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64}
	rec := obs.NewRecorder()
	ReplayObserved(cfg, testTrace(2, 2, 8*time.Second, time.Second), rec)
	_, err := TraceRequests(rec.Events())
	if err == nil {
		t.Fatal("TraceRequests accepted a MaxBatch 4 recording")
	}
	if !strings.Contains(err.Error(), "MaxBatch 4") {
		t.Fatalf("undiagnostic error: %v", err)
	}
}

// TestTraceRequestsRejectsNonMonotone: submit timestamps running backwards
// within a shard mean unmerged concurrent clients; reconstruction must
// refuse, naming the problem.
func TestTraceRequestsRejectsNonMonotone(t *testing.T) {
	secs := []obs.Section{{Name: "system", Tokens: 100}}
	events := []obs.Event{
		{Kind: obs.KindSubmit, T: 5 * time.Second, Req: 1, Agent: "a", Out: 40, Sections: secs},
		{Kind: obs.KindSubmit, T: 2 * time.Second, Req: 2, Agent: "b", Out: 40, Sections: secs},
	}
	_, err := TraceRequests(events)
	if err == nil {
		t.Fatal("TraceRequests accepted a non-monotone stream")
	}
	if !strings.Contains(err.Error(), "non-monotone") {
		t.Fatalf("undiagnostic error: %v", err)
	}
	// Monotone within each shard is fine even if shards interleave.
	events = []obs.Event{
		{Kind: obs.KindSubmit, T: 5 * time.Second, Shard: 0, Req: 1, Agent: "a", Out: 40, Sections: secs},
		{Kind: obs.KindSubmit, T: 2 * time.Second, Shard: 1, Req: 1, Agent: "b", Out: 40, Sections: secs},
		{Kind: obs.KindSubmit, T: 6 * time.Second, Shard: 0, Req: 2, Agent: "a", Out: 40, Sections: secs},
	}
	reqs, err := TraceRequests(events)
	if err != nil || len(reqs) != 3 {
		t.Fatalf("per-shard monotone stream rejected: %v (%d reqs)", err, len(reqs))
	}
}

// TestDisaggReset: Reset returns a disaggregated endpoint to its initial
// state — a reset run reproduces a fresh one.
func TestDisaggReset(t *testing.T) {
	cfg := Config{Profile: noJitter, CacheEntries: 64,
		Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
		Decode:  PoolConfig{Replicas: 1, MaxBatch: 4, MaxWait: time.Second},
		Handoff: Handoff{Latency: 10 * time.Millisecond},
	}
	reqs := testTrace(3, 3, 8*time.Second, time.Second)
	serveAll := func(e *Endpoint) []llm.Served {
		var out []llm.Served
		for _, r := range reqs {
			out = append(out, e.Serve(llm.Call{
				Agent: r.Agent, Arrival: r.Arrival, Prompt: r.Prompt, OutTokens: r.OutTokens,
			}))
		}
		return out
	}
	e := New(cfg)
	first := serveAll(e)
	firstStats := e.Stats()
	e.Reset()
	if !reflect.DeepEqual(serveAll(e), first) {
		t.Fatal("post-reset run diverged from fresh run")
	}
	if !reflect.DeepEqual(e.Stats(), firstStats) {
		t.Fatal("post-reset stats diverged")
	}
}
