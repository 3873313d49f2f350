package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/prompt"
)

// serveBatchFresh is the seed ServeBatch implementation, kept verbatim as
// the differential reference for the scratch-reuse rewrite: fresh keys/outs
// slices and an unmemoized chain hash per member. Identical observable
// behaviour is the contract; only allocations may differ.
func serveBatchFresh(e *Endpoint, calls []llm.Call) []llm.Served {
	if len(calls) == 0 {
		return nil
	}
	if len(calls) == 1 {
		return []llm.Served{e.Serve(calls[0])}
	}
	arrival := calls[0].Arrival
	for _, c := range calls[1:] {
		if c.Arrival > arrival {
			arrival = c.Arrival
		}
	}
	keys := make([]promptKey, len(calls))
	outs := make([]int, len(calls))
	for i, c := range calls {
		keys[i], outs[i] = chainKeysIdent(nil, c.Prompt, e.cfg.Identity), c.OutTokens
	}
	r := e.route(arrival, keys[:1], calls[0].OutTokens)
	start := arrival
	if r.freeAt > start {
		start = r.freeAt
	}
	service, members, totalEff, maxOut := e.admitBatch(r, keys, outs)
	end := start + service
	e.sealFrontier(r)
	r.startBatch(start, end, len(calls), totalEff, maxOut, service)
	e.busyAcc += service
	dec := service - e.cfg.Profile.BatchServiceTime(len(calls), totalEff, 0)
	if dec < 0 {
		dec = 0
	}
	out := make([]llm.Served, len(calls))
	for i, c := range calls {
		wait := start - c.Arrival
		r.lats = append(r.lats, end-c.Arrival)
		e.record(service, wait, len(calls), members[i].cached, members[i].total)
		out[i] = llm.Served{
			Latency: end - c.Arrival, QueueWait: wait,
			BatchSize: len(calls), CachedTokens: members[i].cached,
			PromptTokens: members[i].total, Decode: dec,
		}
	}
	return out
}

// batchScript is a mixed Serve/ServeBatch workload with varying batch
// sizes, so the endpoint scratch grows, shrinks and is reused dirty.
func batchScript() [][]llm.Call {
	var script [][]llm.Call
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 3 * time.Second
		if i%3 == 0 {
			script = append(script, []llm.Call{{
				Agent: "solo", Arrival: at,
				Prompt: sharedPrompt(fmt.Sprintf("a%d", i%5), 30+i), OutTokens: 40,
			}})
			continue
		}
		n := 2 + i%4
		batch := make([]llm.Call, n)
		for j := range batch {
			batch[j] = llm.Call{
				Agent:   fmt.Sprintf("a%d", j),
				Arrival: at + time.Duration(j)*100*time.Millisecond,
				Prompt:  sharedPrompt(fmt.Sprintf("a%d", j), 20+10*(i%7)),
				// One oversize prompt per batch exercises per-member sizes.
				OutTokens: 40 + 5*j,
			}
		}
		script = append(script, batch)
	}
	return script
}

// TestServeBatchScratchDifferential drives the identical workload through
// the scratch-reusing ServeBatch and through the seed fresh-allocation
// reference and requires byte-identical serving outcomes and endpoint
// statistics.
func TestServeBatchScratchDifferential(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, Routing: RouteCacheAffinity,
		MaxBatch: 4, MaxWait: time.Second, CacheEntries: 64}
	scratch, fresh := New(cfg), New(cfg)
	for i, batch := range batchScript() {
		a := scratch.ServeBatch(batch)
		b := serveBatchFresh(fresh, batch)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: scratch-reuse ServeBatch diverged from the fresh reference\nscratch %+v\nfresh   %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(scratch.Stats(), fresh.Stats()) {
		t.Fatalf("endpoint stats diverged:\nscratch %+v\nfresh   %+v", scratch.Stats(), fresh.Stats())
	}
}

// TestServeBatchResultsStableAcrossReuse guards the arena aliasing hazard:
// a ServeBatch call must not corrupt the results of a previous call, and
// repeated runs over a fresh endpoint must be identical.
func TestServeBatchResultsStableAcrossReuse(t *testing.T) {
	run := func() [][]llm.Served {
		e := New(Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
			MaxWait: time.Second, CacheEntries: 64})
		var out [][]llm.Served
		for _, batch := range batchScript() {
			out = append(out, e.ServeBatch(batch))
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("ServeBatch results unstable across identical runs")
	}
}

// TestServeBatchCapacityPressureSpreads: explicitly aggregated batches
// must not evade the capacity-aware routing single calls get — a batch
// plants every member's chain, so placement charges the WHOLE batch's
// insertion footprint. Budget-blind, shared-preamble batches collapse onto
// one replica; with a token budget they spread.
func TestServeBatchCapacityPressureSpreads(t *testing.T) {
	mkBatch := func(stream, step int) []llm.Call {
		at := time.Duration(step)*6*time.Minute + time.Duration(stream)*30*time.Second
		batch := make([]llm.Call, 4)
		for j := range batch {
			batch[j] = llm.Call{
				Agent:   fmt.Sprintf("s%d-a%d", stream, j),
				Arrival: at,
				Prompt: prompt.New(
					prompt.Section{Name: "system", Tokens: 500},
					prompt.Section{Name: "task", Tokens: 200},
					prompt.Section{Name: fmt.Sprintf("persona-s%d-a%d", stream, j), Tokens: 400},
					prompt.Section{Name: "hist", Tokens: 40 + 30*step, Droppable: true},
				),
				OutTokens: 40,
			}
		}
		return batch
	}
	run := func(cacheTokens int) metrics.Serving {
		e := New(Config{Profile: noJitter, Replicas: 4, Routing: RouteCacheAffinity,
			CacheEntries: 512, CacheTokens: cacheTokens})
		for step := 0; step < 8; step++ {
			for stream := 0; stream < 8; stream++ {
				e.ServeBatch(mkBatch(stream, step))
			}
		}
		return e.Stats()
	}
	pure := run(0)
	if pure.MaxReplicaShare() < 0.9 {
		t.Fatalf("budget-blind aggregated batches should collapse (share %.2f)", pure.MaxReplicaShare())
	}
	aware := run(8192)
	if aware.MaxReplicaShare() >= pure.MaxReplicaShare() {
		t.Fatalf("batch capacity pressure should spread: share %.2f vs %.2f collapse",
			aware.MaxReplicaShare(), pure.MaxReplicaShare())
	}
	if aware.CacheTokensPeak > 8192 {
		t.Fatalf("per-replica peak %d exceeds the budget", aware.CacheTokensPeak)
	}
}

// BenchmarkServeBatch measures the explicit-batch admission path:
// scratch-reuse (the shipped path) against the seed's fresh-allocation
// reference. ReportAllocs is the satellite's acceptance number — the
// scratch path should allocate only the returned results.
func BenchmarkServeBatch(b *testing.B) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 256}
	batch := make([]llm.Call, 6)
	for j := range batch {
		batch[j] = llm.Call{
			Agent:   fmt.Sprintf("a%d", j),
			Prompt:  sharedPrompt(fmt.Sprintf("a%d", j), 40),
			Arrival: time.Duration(j) * 50 * time.Millisecond, OutTokens: 50,
		}
	}
	b.Run("fresh-alloc", func(b *testing.B) {
		e := New(cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveBatchFresh(e, batch)
		}
	})
	b.Run("scratch-reuse", func(b *testing.B) {
		e := New(cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ServeBatch(batch)
		}
	})
}
