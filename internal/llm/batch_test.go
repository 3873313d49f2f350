package llm

import (
	"testing"
	"time"

	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// Step-phase batch edge cases (CompleteBatchMulti): single-request
// fallback parity with Complete, truncated-prompt batches, and latency
// additivity against the trace.

func TestCompleteBatchSingleParityWithComplete(t *testing.T) {
	// A one-request batch must be bit-identical to the equivalent Complete
	// call: same decision, corruption draw, latency and trace shape.
	req := Request{
		Agent: "a0", Module: trace.Planning, Step: 2, Kind: "plan",
		Prompt: promptOf(1500), OutTokens: 80,
		Good: "g", Corruptions: []any{"b1", "b2"}, Complexity: 0.3,
	}
	runSingle := func(batch bool) (Response, time.Duration, int) {
		clock := simclock.New()
		tr := trace.New()
		c := NewClient(GPT4, rng.New(7).NewStream("llm"), clock, tr)
		var r Response
		if batch {
			r = CompleteBatchMulti([]*Client{c}, []Request{req})[0]
		} else {
			r = c.Complete(req)
		}
		return r, clock.Now(), len(tr.Events)
	}
	br, bclock, bevents := runSingle(true)
	cr, cclock, cevents := runSingle(false)
	if br != cr {
		t.Fatalf("single-request batch response diverged:\n%+v\n%+v", br, cr)
	}
	if bclock != cclock || bevents != cevents {
		t.Fatalf("accounting diverged: clock %v vs %v, events %d vs %d",
			bclock, cclock, bevents, cevents)
	}
}

// phaseClients builds n clients on one shared clock and trace (either may
// be nil), so the clock sums every member's charged latency.
func phaseClients(n int, p Profile, clock *simclock.Clock, tr *trace.Trace) []*Client {
	clocks := make([]*simclock.Clock, n)
	for i := range clocks {
		clocks[i] = clock
	}
	return multiClients(n, p, clocks, tr)
}

func TestCompleteBatchTruncatesOverflowingPrompts(t *testing.T) {
	p := GPT4
	p.ContextWindow = 600
	p.JitterFrac = 0
	reqs := []Request{
		{Prompt: promptOf(100), OutTokens: 50, Good: 1},  // fits
		{Prompt: promptOf(5000), OutTokens: 50, Good: 2}, // must be truncated
		{Prompt: promptOf(4000), OutTokens: 50, Good: 3}, // must be truncated
	}
	resps := CompleteBatchMulti(phaseClients(3, p, nil, nil), reqs)
	if resps[0].Truncated {
		t.Fatalf("small prompt truncated: %+v", resps[0])
	}
	for i := 1; i < 3; i++ {
		if !resps[i].Truncated {
			t.Fatalf("oversized prompt %d not truncated: %+v", i, resps[i])
		}
		if resps[i].PromptTokens > 550 {
			t.Fatalf("prompt %d not fitted to window: %d tokens", i, resps[i].PromptTokens)
		}
		// The truncation penalty must reach the error channel.
		if resps[i].ErrorP <= resps[0].ErrorP {
			t.Fatalf("truncated request %d should carry a higher pErr: %v vs %v",
				i, resps[i].ErrorP, resps[0].ErrorP)
		}
	}
}

func TestCompleteBatchLatencySharesAdditiveAgainstTrace(t *testing.T) {
	p := GPT4
	p.JitterFrac = 0
	clock := simclock.New()
	tr := trace.New()
	reqs := make([]Request, 5)
	for i := range reqs {
		reqs[i] = Request{
			Agent: "a0", Module: trace.Planning, Kind: "plan",
			Prompt: promptOf(400 + 100*i), OutTokens: 40 + 10*i, Good: i,
		}
	}
	resps := CompleteBatchMulti(phaseClients(len(reqs), p, clock, tr), reqs)

	// Every member rides the whole batch, each charge lands on the clock
	// once, and the trace stays additive: one phase event per member
	// carrying exactly its response latency.
	var sum time.Duration
	for i, r := range resps {
		if r.Latency != resps[0].Latency {
			t.Fatalf("response %d latency %v != %v", i, r.Latency, resps[0].Latency)
		}
		sum += r.Latency
	}
	if clock.Now() != sum {
		t.Fatalf("latencies not additive: clock %v, response sum %v", clock.Now(), sum)
	}
	var traceSum time.Duration
	for _, ev := range tr.Events {
		if ev.Kind != "plan(phase)" || !ev.LLMCall {
			t.Fatalf("unexpected trace event %+v", ev)
		}
		traceSum += ev.Latency
	}
	if traceSum != sum {
		t.Fatalf("trace latency %v != response latency %v", traceSum, sum)
	}
}

func TestCompleteBatchDecodeSlowdownOrdering(t *testing.T) {
	// Batch latency must exceed the longest member served alone (joint
	// decode is not free) while staying under the sequential sum.
	p := GPT4
	p.JitterFrac = 0
	const n, promptTok, outTok = 4, 800, 100
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Prompt: promptOf(promptTok), OutTokens: outTok, Good: i}
	}
	batched := CompleteBatchMulti(phaseClients(n, p, nil, nil), reqs)[0].Latency
	single := p.Latency(promptTok, outTok)
	if batched <= single {
		t.Fatalf("batch of %d (%v) should cost more than one call (%v)", n, batched, single)
	}
	if batched >= time.Duration(n)*single {
		t.Fatalf("batch of %d (%v) should beat %d sequential calls (%v)",
			n, batched, n, time.Duration(n)*single)
	}
}

func TestBatchServiceTimeMatchesClientModel(t *testing.T) {
	p := GPT4
	p.JitterFrac = 0
	got := p.BatchServiceTime(3, 3000, 90)
	want := time.Duration((p.Overhead.Seconds() +
		3000/p.PrefillRate +
		90/p.DecodeRate*(1+BatchDecodeSlowdown*2)) * float64(time.Second))
	if got != want {
		t.Fatalf("BatchServiceTime = %v, want %v", got, want)
	}
	fixed := Profile{FixedLatency: 200 * time.Millisecond, PrefillRate: 1, DecodeRate: 1}
	if fixed.BatchServiceTime(8, 1e6, 1e6) != 200*time.Millisecond {
		t.Fatal("FixedLatency should override the batch token model")
	}
}

// --- step-phase aggregation across clients (CompleteBatchMulti) ---

// multiReqs builds one plan-shaped request per agent.
func multiReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Agent: "agent", Module: trace.Planning, Step: 1, Kind: "plan",
			Prompt: promptOf(1200 + 100*i), OutTokens: 100,
			Good: "g", Corruptions: []any{"b1", "b2"}, Complexity: 0.25,
		}
	}
	return reqs
}

// multiClients builds n clients with per-agent streams off one root seed,
// the way an episode builds its agents.
func multiClients(n int, p Profile, clocks []*simclock.Clock, tr *trace.Trace) []*Client {
	src := rng.New(42)
	out := make([]*Client, n)
	for i := range out {
		out[i] = NewClient(p, src.NewStream("agent"+string(rune('0'+i))+"/plan"), clocks[i], tr)
	}
	return out
}

// TestCompleteBatchMultiAlignsDecisionsWithComplete is the RNG-stream
// alignment contract: issuing the same requests through a phase batch
// must produce exactly the decisions and corruption draws the per-agent
// Complete path produces, because each client's stream is consumed in the
// same order.
func TestCompleteBatchMultiAlignsDecisionsWithComplete(t *testing.T) {
	const n = 4
	run := func(batch bool) []Response {
		clocks := make([]*simclock.Clock, n)
		for i := range clocks {
			clocks[i] = simclock.New()
		}
		clients := multiClients(n, GPT4, clocks, trace.New())
		reqs := multiReqs(n)
		if batch {
			return CompleteBatchMulti(clients, reqs)
		}
		out := make([]Response, n)
		for i := range reqs {
			out[i] = clients[i].Complete(reqs[i])
		}
		return out
	}
	agg, solo := run(true), run(false)
	for i := range agg {
		if agg[i].Decision != solo[i].Decision || agg[i].Corrupted != solo[i].Corrupted ||
			agg[i].ErrorP != solo[i].ErrorP || agg[i].OutputTokens != solo[i].OutputTokens {
			t.Fatalf("agent %d decision diverged under aggregation:\nagg  %+v\nsolo %+v",
				i, agg[i], solo[i])
		}
	}
}

// TestCompleteBatchMultiDirectPricing: without a backend, every member of
// the phase batch pays the joint batch service time (scaled by its own
// retry count), not n sequential latencies.
func TestCompleteBatchMultiDirectPricing(t *testing.T) {
	const n = 4
	p := Profile{Name: "det", Overhead: time.Second, PrefillRate: 1000, DecodeRate: 10,
		ContextWindow: 8192, Capability: 0.9} // no jitter, no retries
	clocks := make([]*simclock.Clock, n)
	for i := range clocks {
		clocks[i] = simclock.New()
	}
	clients := multiClients(n, p, clocks, trace.New())
	reqs := multiReqs(n)
	resps := CompleteBatchMulti(clients, reqs)
	totalPrompt := 0
	for _, r := range resps {
		totalPrompt += r.PromptTokens
	}
	want := p.BatchServiceTime(n, float64(totalPrompt), 100)
	for i, r := range resps {
		if r.Latency != want {
			t.Fatalf("member %d latency = %v, want joint batch time %v", i, r.Latency, want)
		}
		if clocks[i].Now() != want {
			t.Fatalf("member %d clock advanced %v, want %v", i, clocks[i].Now(), want)
		}
	}
	solo := p.Latency(resps[0].PromptTokens, 100)
	if want >= time.Duration(n)*solo {
		t.Fatal("phase batch should beat n sequential calls")
	}
}

// TestCompleteBatchMultiUsesBatchBackend: with a BatchBackend attached the
// phase leaves as ONE explicit batch — every member reports the full
// batch size.
func TestCompleteBatchMultiUsesBatchBackend(t *testing.T) {
	const n = 3
	p := Profile{Name: "det", Overhead: time.Second, PrefillRate: 1000, DecodeRate: 10,
		ContextWindow: 8192, Capability: 0.9}
	bb := &recordingBatchBackend{}
	clocks := make([]*simclock.Clock, n)
	for i := range clocks {
		clocks[i] = simclock.New()
	}
	clients := multiClients(n, p, clocks, trace.New())
	for _, c := range clients {
		c.SetBackend(bb)
	}
	CompleteBatchMulti(clients, multiReqs(n))
	if bb.batches != 1 || bb.singles != 0 {
		t.Fatalf("phase should submit exactly one explicit batch: %d batches, %d singles",
			bb.batches, bb.singles)
	}
	if bb.lastSize != n {
		t.Fatalf("batch carried %d calls, want %d", bb.lastSize, n)
	}
}

// recordingBatchBackend counts how traffic reaches it.
type recordingBatchBackend struct {
	batches, singles, lastSize int
}

func (b *recordingBatchBackend) Serve(c Call) Served {
	b.singles++
	return Served{Latency: time.Second, BatchSize: 1}
}

func (b *recordingBatchBackend) ServeBatch(calls []Call) []Served {
	b.batches++
	b.lastSize = len(calls)
	out := make([]Served, len(calls))
	for i := range out {
		out[i] = Served{Latency: 2 * time.Second, BatchSize: len(calls)}
	}
	return out
}
