package serve

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/serve/obs"
)

// closedLoopScript turns a monotone request trace into closed-loop
// submissions. The single-call script submits every request through Serve;
// the mixed script groups some neighbours into explicit ServeBatch calls
// (two or three members) and submits the rest one at a time, so single
// calls can join frontiers that explicit batches launched and vice versa.
func closedLoopScript(reqs []Request, mixed bool) [][]llm.Call {
	var script [][]llm.Call
	for i := 0; i < len(reqs); {
		n := 1
		if mixed && i%5 == 0 {
			n = 2 + i%2
		}
		if i+n > len(reqs) {
			n = len(reqs) - i
		}
		calls := make([]llm.Call, n)
		for j, r := range reqs[i : i+n] {
			calls[j] = llm.Call{Agent: r.Agent, Arrival: r.Arrival, Prompt: r.Prompt, OutTokens: r.OutTokens}
		}
		script = append(script, calls)
		i += n
	}
	return script
}

// runScript drives one endpoint through a script, single-member steps via
// Serve and the rest via ServeBatch, and returns every Served in order.
func runScript(e *Endpoint, script [][]llm.Call) []llm.Served {
	var out []llm.Served
	for _, calls := range script {
		if len(calls) == 1 {
			out = append(out, e.Serve(calls[0]))
			continue
		}
		out = append(out, e.ServeBatch(calls)...)
	}
	return out
}

// servedDigest hashes everything a closed-loop run reports.
func servedDigest(served []llm.Served, stats metrics.Serving) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v", served, stats)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// streamDigest hashes a recorded event stream.
func streamDigest(events []obs.Event) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// joinsOnto counts batch_join events per launching entry point: a join
// onto a frontier whose batch_start had one member rode a Serve launch, a
// join onto a larger launch rode a ServeBatch launch (Serve always
// launches single-member batches).
func joinsOnto(events []obs.Event) (single, explicit int) {
	launched := map[string]int{}
	for _, ev := range events {
		key := fmt.Sprintf("%s/%d/%d", ev.Stage, ev.Shard, ev.Replica)
		switch ev.Kind {
		case obs.KindBatchStart:
			launched[key] = ev.Batch
		case obs.KindBatchJoin:
			if launched[key] > 1 {
				explicit++
			} else {
				single++
			}
		}
	}
	return single, explicit
}

// TestServeSeedEquivalence pins the closed-loop entry points on generated
// traffic: script (single calls, mixed Serve/ServeBatch) × routing ×
// MaxBatch × autoscaler × faults (off, crash+straggler), plus
// disaggregated cells without faults or autoscaling. Each cell records a
// digest of every Served plus Stats, and a digest of the recorded stream;
// running without a sink must give the same results, and every stream
// must validate.
func TestServeSeedEquivalence(t *testing.T) {
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: 16, Horizon: 20 * time.Minute, Seed: 5})
	faults := Faults{MTBF: 3 * time.Minute, MTTR: 30 * time.Second,
		StragglerEvery: 2 * time.Minute, StragglerFor: 20 * time.Second, StragglerFactor: 4, Seed: 1}
	var b strings.Builder
	var failed, joinSingle, joinExplicit int
	cell := func(name string, cfg Config, script [][]llm.Call) {
		plain := New(cfg)
		want := runScript(plain, script)
		wantStats := plain.Stats()
		e := New(cfg)
		rec := obs.NewRecorder()
		e.SetSink(rec)
		got := runScript(e, script)
		stats := e.Stats()
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("%s: recorder changed the closed-loop results", name)
		}
		events := rec.Events()
		if err := obs.Validate(events); err != nil {
			t.Errorf("%s: recorded stream invalid: %v", name, err)
		}
		failed += stats.FailedBatches
		s, x := joinsOnto(events)
		joinSingle += s
		joinExplicit += x
		fmt.Fprintf(&b, "%-44s served=%d failed=%d %s\n", name, len(got), stats.FailedBatches, servedDigest(got, stats))
		fmt.Fprintf(&b, "%-44s events=%d %s\n", name, len(events), streamDigest(events))
	}
	for _, mixed := range []bool{false, true} {
		script := closedLoopScript(reqs, mixed)
		kind := "single"
		if mixed {
			kind = "mixed"
		}
		for _, rt := range []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion} {
			for _, mb := range []int{1, 4} {
				for _, as := range []bool{false, true} {
					for _, fx := range []bool{false, true} {
						cfg := seedGridConfig(noJitter, mb, as, rt)
						if fx {
							cfg.Faults = faults
						}
						cell(fmt.Sprintf("%s/%s/mb%d/as=%t/fx=%t", kind, rt, mb, as, fx), cfg, script)
					}
				}
				cfg := Config{
					Profile: noJitter, Routing: rt,
					CacheEntries: 64, CacheTokens: 4096, Identity: IdentityContent,
					Prefill: PoolConfig{Replicas: 2, MaxBatch: mb, MaxWait: 500 * time.Millisecond},
					Decode:  PoolConfig{Replicas: 2, MaxBatch: mb, MaxWait: 500 * time.Millisecond},
					Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000},
				}
				cell(fmt.Sprintf("%s/%s/mb%d/disagg", kind, rt, mb), cfg, script)
			}
		}
	}
	if failed == 0 {
		t.Error("no cell failed a batch: the grid does not exercise crash-retry")
	}
	if joinSingle == 0 || joinExplicit == 0 {
		t.Errorf("joins onto Serve launches %d, onto ServeBatch launches %d: want both > 0", joinSingle, joinExplicit)
	}
	checkGolden(t, "serve_seed.golden", b.String())
}
