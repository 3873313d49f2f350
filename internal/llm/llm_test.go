package llm

import (
	"testing"
	"time"

	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

func testClient(p Profile, tr *trace.Trace, clock *simclock.Clock) *Client {
	return NewClient(p, rng.New(1).NewStream("llm"), clock, tr)
}

func promptOf(tokens int) prompt.Prompt {
	return prompt.New(prompt.Section{Name: "body", Tokens: tokens, Droppable: true})
}

func TestProfileLatency(t *testing.T) {
	p := Profile{Overhead: time.Second, PrefillRate: 1000, DecodeRate: 10}
	got := p.Latency(2000, 50)
	want := time.Second + 2*time.Second + 5*time.Second
	if got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

func TestProfileFixedLatency(t *testing.T) {
	p := Profile{FixedLatency: 120 * time.Millisecond, PrefillRate: 1, DecodeRate: 1}
	if p.Latency(99999, 99999) != 120*time.Millisecond {
		t.Fatal("FixedLatency should override token model")
	}
}

func TestGPT4StepLatencyInPaperBand(t *testing.T) {
	// A typical planning call (≈1800 prompt, 150 output tokens) should cost
	// on the order of 10s — the paper reports 10–30 s per step with one to
	// three such calls.
	lat := GPT4.Latency(1800, 150)
	if lat < 5*time.Second || lat > 20*time.Second {
		t.Fatalf("GPT-4 planning call latency = %v, want 5–20s", lat)
	}
}

func TestLocalFasterPerCall(t *testing.T) {
	// Paper Takeaway 3: local models have faster per-inference time.
	if Llama3_8B.Latency(1500, 150) >= GPT4.Latency(1500, 150) {
		t.Fatal("Llama-3-8B per-call latency should beat GPT-4")
	}
}

func TestLocalLowerCapability(t *testing.T) {
	if Llama3_8B.BaseError() <= GPT4.BaseError() {
		t.Fatal("Llama-3-8B should have higher base error than GPT-4")
	}
}

func TestProfilesRegistry(t *testing.T) {
	for name, p := range Profiles {
		if p.Name != name {
			t.Errorf("profile %q registered under %q", p.Name, name)
		}
		if p.Capability <= 0 || p.Capability > 1 {
			t.Errorf("profile %q capability out of range: %v", name, p.Capability)
		}
		if p.ContextWindow <= 0 {
			t.Errorf("profile %q missing context window", name)
		}
	}
	if len(Profiles) < 9 {
		t.Fatalf("expected ≥9 profiles, got %d", len(Profiles))
	}
}

func TestCompleteReturnsGoodWhenNoError(t *testing.T) {
	p := GPT4
	p.Capability = 1 // base error 0
	p.JitterFrac = 0
	c := testClient(p, nil, nil)
	resp := c.Complete(Request{
		Prompt: promptOf(100), OutTokens: 20,
		Good: "correct", Corruptions: []any{"wrong"},
	})
	// pErr = dilution only = 0.55*(120/8192)^2 ≈ 0.0001; over one draw this
	// is effectively never taken with the fixed seed.
	if resp.Corrupted || resp.Decision != "correct" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestCompleteCorruptsAtHighError(t *testing.T) {
	p := GPT4
	p.Capability = 0 // base error 0.25
	c := testClient(p, nil, nil)
	corrupted := 0
	for i := 0; i < 400; i++ {
		resp := c.Complete(Request{
			Prompt: promptOf(100), OutTokens: 10,
			Good: "good", Corruptions: []any{"bad1", "bad2"},
			Complexity: 0.5, // pErr ≈ 0.75
		})
		if resp.Corrupted {
			if resp.Decision != "bad1" && resp.Decision != "bad2" {
				t.Fatalf("corruption returned unexpected decision %v", resp.Decision)
			}
			corrupted++
		}
	}
	if corrupted < 220 || corrupted > 360 {
		t.Fatalf("corruption count = %d/400, want ≈300", corrupted)
	}
}

func TestCompleteNeverCorruptsWithoutCandidates(t *testing.T) {
	p := GPT4
	p.Capability = 0
	c := testClient(p, nil, nil)
	for i := 0; i < 50; i++ {
		resp := c.Complete(Request{Prompt: promptOf(100), Good: "only", Complexity: 0.9})
		if resp.Corrupted || resp.Decision != "only" {
			t.Fatal("corrupted without candidates")
		}
	}
}

func TestErrorProbabilityMonotoneInPromptSize(t *testing.T) {
	c := testClient(GPT4, nil, nil)
	small := c.ErrorProbability(500, false, Request{})
	large := c.ErrorProbability(6000, false, Request{})
	if large <= small {
		t.Fatalf("dilution not monotone: %v vs %v", small, large)
	}
}

func TestErrorProbabilityTruncationPenalty(t *testing.T) {
	c := testClient(GPT4, nil, nil)
	base := c.ErrorProbability(1000, false, Request{})
	trunc := c.ErrorProbability(1000, true, Request{})
	if trunc-base < 0.17 || trunc-base > 0.19 {
		t.Fatalf("truncation penalty = %v", trunc-base)
	}
}

func TestErrorProbabilityStalenessAndComplexity(t *testing.T) {
	c := testClient(GPT4, nil, nil)
	p0 := c.ErrorProbability(100, false, Request{})
	p1 := c.ErrorProbability(100, false, Request{Staleness: 0.4})
	if p1-p0 < 0.19 || p1-p0 > 0.21 {
		t.Fatalf("staleness contribution = %v, want 0.2", p1-p0)
	}
	p2 := c.ErrorProbability(100, false, Request{Complexity: 0.3})
	if p2-p0 < 0.29 || p2-p0 > 0.31 {
		t.Fatalf("complexity contribution = %v, want 0.3", p2-p0)
	}
}

func TestErrorProbabilityClamped(t *testing.T) {
	c := testClient(GPT4, nil, nil)
	if p := c.ErrorProbability(100, true, Request{Complexity: 5}); p != 0.98 {
		t.Fatalf("pErr not clamped: %v", p)
	}
}

func TestErrorDiscount(t *testing.T) {
	p := GPT4
	p.Capability = 0.5
	c := testClient(p, nil, nil)
	full := c.ErrorProbability(0, false, Request{})
	half := c.ErrorProbability(0, false, Request{ErrorDiscount: 0.5})
	if half >= full || half < full*0.49 {
		t.Fatalf("discount not applied: %v vs %v", half, full)
	}
}

func TestCompleteChargesClockAndTrace(t *testing.T) {
	clock := simclock.New()
	tr := trace.New()
	c := testClient(GPT4, tr, clock)
	resp := c.Complete(Request{
		Agent: "a0", Module: trace.Planning, Step: 3, Kind: "plan",
		Prompt: promptOf(1000), OutTokens: 100, Good: 1,
	})
	if clock.Now() != resp.Latency {
		t.Fatalf("clock = %v, latency = %v", clock.Now(), resp.Latency)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("trace events = %d", len(tr.Events))
	}
	ev := tr.Events[0]
	if ev.Module != trace.Planning || !ev.LLMCall || ev.Step != 3 || ev.PromptTokens != 1000 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestCompleteTruncatesToWindow(t *testing.T) {
	p := GPT4
	p.ContextWindow = 500
	p.JitterFrac = 0
	c := testClient(p, nil, nil)
	resp := c.Complete(Request{Prompt: promptOf(5000), OutTokens: 100, Good: 1})
	if !resp.Truncated {
		t.Fatal("expected truncation")
	}
	if resp.PromptTokens > 400 {
		t.Fatalf("prompt not fitted: %d tokens", resp.PromptTokens)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Response {
		c := testClient(GPT4, nil, nil)
		var out []Response
		for i := 0; i < 20; i++ {
			out = append(out, c.Complete(Request{
				Prompt: promptOf(1000 + i*100), OutTokens: 50,
				Good: "g", Corruptions: []any{"b"}, Complexity: 0.2,
			}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at call %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCompleteBatchSharesOverhead(t *testing.T) {
	p := GPT4
	p.JitterFrac = 0
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Prompt: promptOf(1000), OutTokens: 100, Good: i}
	}
	resps := CompleteBatchMulti(phaseClients(4, p, nil, nil), reqs)
	if len(resps) != 4 {
		t.Fatalf("responses = %d", len(resps))
	}
	batched := resps[0].Latency
	seq := 4 * p.Latency(1000, 100)
	if batched >= seq {
		t.Fatalf("batching slower than sequential: %v vs %v", batched, seq)
	}
}

func TestCompleteBatchSingleFallsBack(t *testing.T) {
	clock := simclock.New()
	c := testClient(GPT4, nil, clock)
	resps := CompleteBatchMulti([]*Client{c}, []Request{{Prompt: promptOf(100), OutTokens: 10, Good: "x"}})
	if len(resps) != 1 || resps[0].Decision != "x" {
		t.Fatalf("resps = %+v", resps)
	}
}

func TestCompleteBatchEmpty(t *testing.T) {
	if got := CompleteBatchMulti(nil, nil); got != nil {
		t.Fatal("empty batch should return nil")
	}
}

func TestCompleteBatchTraceAdditive(t *testing.T) {
	p := GPT4
	p.JitterFrac = 0
	clock := simclock.New()
	tr := trace.New()
	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = Request{Module: trace.Planning, Prompt: promptOf(500), OutTokens: 50, Good: i}
	}
	CompleteBatchMulti(phaseClients(3, p, clock, tr), reqs)
	if len(tr.Events) != 3 {
		t.Fatalf("trace events = %d", len(tr.Events))
	}
	if d := tr.Total() - clock.Now(); d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("trace total %v != clock %v", tr.Total(), clock.Now())
	}
}

func TestBatchSpeedup(t *testing.T) {
	s := BatchSpeedup(GPT4, 6, 1200, 120)
	if s <= 1.5 {
		t.Fatalf("BatchSpeedup = %v, want > 1.5", s)
	}
	if BatchSpeedup(GPT4, 0, 100, 10) != 1 {
		t.Fatal("speedup for n=0 should be 1")
	}
}
