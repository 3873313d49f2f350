package main

// Per-layer Go benchmarks. Each times calls into one layer's public API, so
// ns/op, B/op and allocs/op isolate that layer. Run from benchmark/:
//
//	go test -run '^$' -bench . -benchmem -benchtime 2s -count 5
//
// The replay benchmarks also report ns/request, one full replay divided by
// the requests it serves; the JSONL benchmark reports ns/event.

import (
	"io"
	"strconv"
	"testing"
	"time"

	"embench/internal/core"
	"embench/internal/env/gridhouse"
	"embench/internal/env/kitchen"
	"embench/internal/llm"
	"embench/internal/modules/memory"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/serve"
	"embench/internal/serve/obs"
	"embench/internal/simclock"
	"embench/internal/trace"
	"embench/internal/world"
)

// sinkValue keeps benchmarked results alive so the calls are not removed.
var sinkValue any

// filledStore returns a store of the given capacity holding perStep keyed
// records at each of steps steps.
func filledStore(capacity, steps, perStep int) *memory.Store {
	s := memory.NewStore(capacity)
	for step := 0; step < steps; step++ {
		for k := 0; k < perStep; k++ {
			s.Add(memory.Record{Step: step, Key: "obj:" + strconv.Itoa(k), Payload: step, Tokens: 12})
		}
	}
	return s
}

func BenchmarkMemoryAdd(b *testing.B) {
	keys := make([]string, 16)
	for k := range keys {
		keys[k] = "obj:" + strconv.Itoa(k)
	}
	s := memory.NewStore(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(memory.Record{Step: i / len(keys), Key: keys[i%len(keys)], Payload: i, Tokens: 12})
	}
}

func BenchmarkMemoryRetrieve(b *testing.B) {
	for _, c := range []struct {
		name     string
		capacity int
	}{{"window32", 32}, {"unlimited", -1}} {
		s := filledStore(c.capacity, 64, 16)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkValue = s.Retrieve(63)
			}
		})
	}
}

// envDomains are the two environments behind episodes-scale, at a hard
// team of four.
var envDomains = []struct {
	name string
	new  func() core.Domain
}{
	{"gridhouse", func() core.Domain {
		return gridhouse.New(gridhouse.Config{Agents: 4, Difficulty: world.Hard}, rng.New(1))
	}},
	{"kitchen", func() core.Domain {
		return kitchen.New(kitchen.Config{Agents: 4, Difficulty: world.Hard}, rng.New(1))
	}},
}

func BenchmarkEnvObserve(b *testing.B) {
	for _, e := range envDomains {
		d := e.new()
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkValue = d.Observe(i % d.Agents())
			}
		})
	}
}

// BenchmarkEnvBuildBelief folds the static records plus every agent's
// observations over eight ticks, the kind of window an agent retrieves.
func BenchmarkEnvBuildBelief(b *testing.B) {
	for _, e := range envDomains {
		d := e.new()
		recs := d.StaticRecords()
		for t := 0; t < 8; t++ {
			for a := 0; a < d.Agents(); a++ {
				recs = append(recs, d.Observe(a).Records...)
			}
			d.Tick()
		}
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkValue = d.BuildBelief(i%d.Agents(), recs)
			}
		})
	}
}

// planPrompt is a planning prompt of the suite's typical size.
func planPrompt() prompt.Prompt {
	return prompt.New(
		prompt.Section{Name: "system", Tokens: 500},
		prompt.Section{Name: "task", Tokens: 200},
		prompt.Section{Name: "memory", Tokens: 400, Droppable: true},
		prompt.Section{Name: "observation", Tokens: 60},
	)
}

func BenchmarkLLMComplete(b *testing.B) {
	c := llm.NewClient(llm.GPT4, rng.New(1).NewStream("benchmark/llm"), simclock.New(), trace.New())
	req := llm.Request{
		Agent: "agent0", Module: trace.Planning, Kind: "plan",
		Prompt: planPrompt(), OutTokens: 60, Good: 1, Corruptions: []any{2, 3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.Step = i
		sinkValue = c.Complete(req)
	}
}

func BenchmarkEndpointServeNoSink(b *testing.B) {
	e := serve.New(serve.Config{
		Profile: llm.GPT4, Replicas: 2, MaxBatch: 4, MaxWait: time.Second, CacheTokens: 4096,
	})
	call := llm.Call{Agent: "a", Prompt: planPrompt(), OutTokens: 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		call.Arrival = time.Duration(i) * time.Second
		sinkValue = e.Serve(call)
	}
}

// BenchmarkReplay replays 32 bursty tenants through each of the three
// replay event loops: the seed loop (autoscaled, no faults), the resilient
// loop (faults and client policies) and the disaggregated loop.
func BenchmarkReplay(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  serve.Config
		reqs []serve.Request
	}{
		{"seed", autoscaled(), bursty(1, replayTenants)},
		{"resilient", faulted(1), withDeadline(bursty(1, replayTenants))},
		{"disagg", disaggregated(), bursty(1, replayTenants)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkValue = serve.Replay(c.cfg, c.reqs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.reqs)), "ns/request")
		})
	}
}

// recordedEvents is the flight-recorder stream of one faulted replay.
func recordedEvents() []obs.Event {
	rec := obs.NewRecorder()
	serve.ReplayObserved(faulted(1), withDeadline(bursty(1, replayTenants)), rec)
	return rec.Events()
}

func BenchmarkRecorderEvent(b *testing.B) {
	evs := recordedEvents()
	rec := obs.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(evs) == 0 {
			rec.Reset() // bound the recorder's memory; Reset keeps capacity
		}
		rec.Event(evs[i%len(evs)])
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	evs := recordedEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteJSONL(io.Discard, evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
