package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// The reference router below is the two-router implementation — one
// router for single calls, one for explicit batches, each with its own
// cache-affinity and shortest-completion loop and completion estimate —
// kept verbatim (as functions of the endpoint) as the differential
// reference for the production router. Identical placement on every
// endpoint state is the contract.

func refRoute(e *Endpoint, arrival time.Duration, k promptKey, outTokens int) *replica {
	switch e.cfg.Routing {
	case RouteCacheAffinity:
		return refRouteCacheAffinity(e, arrival, k)
	case RouteShortestCompletion:
		return refRouteShortestCompletion(e, arrival, k, outTokens)
	default:
		return e.routeLeastLoaded(arrival)
	}
}

func refRouteCacheAffinity(e *Endpoint, t time.Duration, k promptKey) *replica {
	act := e.replicas[:e.active]
	var best *replica
	bestScore := 0
	for i := range act {
		if e.fxDown(i, t) {
			continue
		}
		r := &act[i]
		score, _ := affinityScore(r, k)
		if best == nil || score > bestScore || (score == bestScore && r.freeAt < best.freeAt) {
			best, bestScore = r, score
		}
	}
	if best == nil {
		return e.routeLeastLoaded(t)
	}
	return best
}

func refRouteShortestCompletion(e *Endpoint, arrival time.Duration, k promptKey, outTokens int) *replica {
	act := e.replicas[:e.active]
	var best *replica
	var bestDone time.Duration
	for i := range act {
		if e.fxDown(i, arrival) {
			continue
		}
		r := &act[i]
		if done := refEstimateCompletion(e, r, arrival, k, outTokens); best == nil || done < bestDone {
			best, bestDone = r, done
		}
	}
	if best == nil {
		return e.routeLeastLoaded(arrival)
	}
	return best
}

func refEstimateCompletion(e *Endpoint, r *replica, arrival time.Duration, k promptKey, outTokens int) time.Duration {
	start := arrival
	if r.freeAt > start {
		start = r.freeAt
	}
	cached := r.cache.matchKey(k)
	eff := e.discountedEff(cached, k.total)
	eff += float64(r.cache.pressure(k, cached)) * (1 - e.cfg.CachedPrefillFrac)
	return start + e.cfg.Profile.BatchServiceTime(1, eff, outTokens)
}

func refBatchPressure(e *Endpoint, r *replica, keys []promptKey) int {
	if r.cache == nil || r.cache.capTokens <= 0 {
		return 0
	}
	if e.seen == nil {
		e.seen = make(map[uint64]bool, 64)
	}
	return r.cache.pressureGrowth(r.cache.batchGrowth(keys, e.seen))
}

func refRouteBatch(e *Endpoint, arrival time.Duration, keys []promptKey, outTokens int) *replica {
	if len(keys) == 1 {
		return refRoute(e, arrival, keys[0], outTokens)
	}
	act := e.replicas[:e.active]
	switch e.cfg.Routing {
	case RouteCacheAffinity:
		var best *replica
		bestScore := 0
		for i := range act {
			if e.fxDown(i, arrival) {
				continue
			}
			r := &act[i]
			score := r.cache.matchKey(keys[0]) - refBatchPressure(e, r, keys)
			if best == nil || score > bestScore || (score == bestScore && r.freeAt < best.freeAt) {
				best, bestScore = r, score
			}
		}
		if best == nil {
			return e.routeLeastLoaded(arrival)
		}
		return best
	case RouteShortestCompletion:
		var best *replica
		var bestDone time.Duration
		for i := range act {
			if e.fxDown(i, arrival) {
				continue
			}
			r := &act[i]
			if done := refEstimateBatchCompletion(e, r, arrival, keys, outTokens); best == nil || done < bestDone {
				best, bestDone = r, done
			}
		}
		if best == nil {
			return e.routeLeastLoaded(arrival)
		}
		return best
	default:
		return e.routeLeastLoaded(arrival)
	}
}

func refEstimateBatchCompletion(e *Endpoint, r *replica, arrival time.Duration, keys []promptKey, outTokens int) time.Duration {
	start := arrival
	if r.freeAt > start {
		start = r.freeAt
	}
	eff := e.discountedEff(r.cache.matchKey(keys[0]), keys[0].total)
	eff += float64(refBatchPressure(e, r, keys)) * (1 - e.cfg.CachedPrefillFrac)
	return start + e.cfg.Profile.BatchServiceTime(1, eff, outTokens)
}

// phaseCalls builds n calls sharing the system/task preamble, each with a
// persona drawn from a small pool (so replicas hold each other's warm
// chains) and a history of random length.
func phaseCalls(st *rng.Stream, n int, at time.Duration) []llm.Call {
	calls := make([]llm.Call, n)
	for i := range calls {
		persona := fmt.Sprintf("persona-%d", st.Intn(5))
		calls[i] = llm.Call{
			Agent: persona, Arrival: at,
			Prompt: prompt.New(
				prompt.Section{Name: "system", Tokens: 220},
				prompt.Section{Name: "task", Tokens: 90},
				prompt.Section{Name: persona, Tokens: 300 + 100*st.Intn(4)},
				prompt.Section{Name: "hist", Tokens: 20 * st.Intn(6), Droppable: true},
			),
			OutTokens: 20 + 10*st.Intn(8),
		}
	}
	return calls
}

// TestRouterMatchesReference drives random closed-loop traffic (single
// calls and explicit batches of up to 8 members) through endpoints of 1–6
// replicas under every policy, token and entry budgets, crash faults and
// autoscaling, and before every admission checks that the production
// router places 1–8 keys sharing a preamble exactly where the reference
// two-router implementation does.
func TestRouterMatchesReference(t *testing.T) {
	budgets := []struct{ tokens, entries int }{{0, 0}, {0, 12}, {1200, 0}, {3000, 0}, {2000, 16}}
	variants := []string{"plain", "faults", "autoscale", "faults+autoscale"}
	var probes, downProbes, parkedProbes int
	for replicas := 1; replicas <= 6; replicas++ {
		for _, policy := range []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion} {
			for bi, b := range budgets {
				for vi, variant := range variants {
					cfg := Config{
						Profile: noJitter, Replicas: replicas, Routing: policy,
						MaxBatch: 4, MaxWait: time.Second,
						CacheTokens: b.tokens, CacheEntries: b.entries,
					}
					if vi%2 == 1 {
						cfg.Faults = Faults{MTBF: 90 * time.Second, MTTR: 40 * time.Second, Seed: uint64(replicas)}
					}
					if vi >= 2 {
						cfg.Autoscale = Autoscale{Interval: 20 * time.Second, ColdStart: 5 * time.Second}
					}
					e := New(cfg)
					st := rng.New(uint64(100*replicas + 10*bi + vi)).NewStream(string(policy))
					at := time.Duration(0)
					for step := 0; step < 40; step++ {
						at += time.Duration(st.Intn(8000)) * time.Millisecond
						calls := phaseCalls(st, 1+st.Intn(8), at)
						// Bring the endpoint to the admission instant, as
						// both entry points do before routing.
						if e.fx != nil {
							e.applyFaults(at)
						}
						e.maybeAutoscale(at)
						keys := make([]promptKey, len(calls))
						for i, c := range calls {
							keys[i] = chainKeysIdent(nil, c.Prompt, e.cfg.Identity)
						}
						for n := 1; n <= len(keys); n++ {
							var want *replica
							if n == 1 {
								want = refRoute(e, at, keys[0], calls[0].OutTokens)
							} else {
								want = refRouteBatch(e, at, keys[:n], calls[0].OutTokens)
							}
							got := e.route(at, keys[:n], calls[0].OutTokens)
							if got != want {
								t.Fatalf("replicas=%d %s budget=%+v %s step %d, %d keys: routed to replica %d, reference %d",
									replicas, policy, b, variant, step, n, e.rindex(got), e.rindex(want))
							}
							probes++
						}
						for i := 0; i < e.active; i++ {
							if e.fxDown(i, at) {
								downProbes++
								break
							}
						}
						if e.active < len(e.replicas) {
							parkedProbes++
						}
						if len(calls) == 1 || st.Intn(3) == 0 {
							e.Serve(calls[0])
						} else {
							e.ServeBatch(calls)
						}
					}
				}
			}
		}
	}
	if downProbes == 0 || parkedProbes == 0 {
		t.Fatalf("random states never held a crashed (%d) or parked (%d) replica", downProbes, parkedProbes)
	}
	t.Logf("%d placements compared (%d states with a crashed replica, %d with a parked one)", probes, downProbes, parkedProbes)
}

// TestServeIsServeBatchOfOne pins the two closed-loop entry points to one
// behaviour: Serve(c) and ServeBatch([]llm.Call{c}) give equal results,
// statistics and recorded event streams, including joins, crash
// re-admission, autoscaling and disaggregated pools.
func TestServeIsServeBatchOfOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"least-loaded", Config{Profile: noJitter, Replicas: 3, MaxBatch: 4, MaxWait: time.Second, CacheTokens: 2048}},
		{"cache-affinity", Config{Profile: noJitter, Replicas: 3, Routing: RouteCacheAffinity,
			MaxBatch: 4, MaxWait: time.Second, CacheTokens: 1024}},
		{"shortest-completion", Config{Profile: noJitter, Replicas: 3, Routing: RouteShortestCompletion,
			MaxBatch: 4, MaxWait: 2 * time.Second, CacheEntries: 16}},
		{"faults+autoscale", Config{Profile: noJitter, Replicas: 4, Routing: RouteShortestCompletion,
			MaxBatch: 4, MaxWait: time.Second, CacheTokens: 2048,
			Faults:    Faults{MTBF: time.Minute, MTTR: 20 * time.Second, StragglerEvery: time.Minute, Seed: 3},
			Autoscale: Autoscale{Interval: 15 * time.Second, ColdStart: 3 * time.Second}}},
		{"disaggregated", Config{Profile: noJitter, CacheTokens: 2048,
			Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
			Decode:  PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
			Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, batch := New(tc.cfg), New(tc.cfg)
			rs, rb := obs.NewRecorder(), obs.NewRecorder()
			single.SetSink(rs)
			batch.SetSink(rb)
			for i, c := range monotoneCalls(80) {
				s := single.Serve(c)
				b := batch.ServeBatch([]llm.Call{c})
				if len(b) != 1 || s != b[0] {
					t.Fatalf("call %d: Serve %+v, ServeBatch %+v", i, s, b)
				}
			}
			if s, b := single.Stats(), batch.Stats(); !reflect.DeepEqual(s, b) {
				t.Fatalf("stats diverged:\nServe      %+v\nServeBatch %+v", s, b)
			}
			if !reflect.DeepEqual(rs.Events(), rb.Events()) {
				t.Fatalf("event streams diverged: %d vs %d events", rs.Len(), rb.Len())
			}
			joins := 0
			for _, ev := range rs.Events() {
				if ev.Kind == obs.KindBatchJoin {
					joins++
				}
			}
			if joins == 0 {
				t.Fatal("no call joined an in-flight batch")
			}
		})
	}
}
