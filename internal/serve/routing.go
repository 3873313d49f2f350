package serve

import (
	"fmt"
	"time"
)

// RoutingPolicy selects which replica an admitted request (or launching
// batch) is placed on. Every policy is deterministic: scores are pure
// functions of the endpoint's virtual-time state and ties always break on
// the lowest replica index, so routing never depends on goroutine
// scheduling.
type RoutingPolicy string

const (
	// RouteLeastLoaded places the request on the replica that frees
	// earliest — the classic load balancer, blind to cache locality.
	RouteLeastLoaded RoutingPolicy = "least-loaded"
	// RouteCacheAffinity places the request on the replica whose prefix/KV
	// cache covers the most leading prompt tokens, accepting some queueing
	// to keep warm prefixes hot (sticky sessions, as serving stacks route
	// conversations). Load breaks ties.
	RouteCacheAffinity RoutingPolicy = "cache-affinity"
	// RouteShortestCompletion estimates, per replica, when the request
	// would actually finish — queueing behind the frontier plus service
	// time under that replica's cache discount — and picks the minimum.
	// It is the latency-aware blend of the other two.
	RouteShortestCompletion RoutingPolicy = "shortest-completion"
)

// ParseRouting converts a CLI/config string into a RoutingPolicy. The empty
// string selects the default (least-loaded). On error the returned policy
// is "" — NOT a usable fallback — so a caller that drops the error cannot
// silently run least-loaded where the user asked for something else.
func ParseRouting(s string) (RoutingPolicy, error) {
	switch RoutingPolicy(s) {
	case "", RouteLeastLoaded:
		return RouteLeastLoaded, nil
	case RouteCacheAffinity:
		return RouteCacheAffinity, nil
	case RouteShortestCompletion:
		return RouteShortestCompletion, nil
	}
	return "", fmt.Errorf("serve: unknown routing policy %q (%s|%s|%s)",
		s, RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion)
}

// ParseIdentity converts a CLI/config string into a CacheIdentity. The
// empty string selects the default (shape). Like ParseRouting, the returned
// identity is "" on error.
func ParseIdentity(s string) (CacheIdentity, error) {
	switch CacheIdentity(s) {
	case "", IdentityShape:
		return IdentityShape, nil
	case IdentityContent:
		return IdentityContent, nil
	}
	return "", fmt.Errorf("serve: unknown cache identity %q (%s|%s)",
		s, IdentityShape, IdentityContent)
}

// route picks the replica for one request, or for an explicit batch with
// one key per member, under the endpoint's routing policy. The memoized
// prompt keys drive the cache-aware policies (hashed once per request,
// probed against every replica); arrival anchors completion estimates. The
// head key stands in for a batch, whose members share their leading prompt
// structure by construction, while the capacity penalty prices every
// member's insertion (see penalty). Cache-affinity picks the best
// capacity-adjusted prefix coverage, earliest-free then lowest index on
// ties; shortest-completion picks the earliest estimated completion (see
// estimateCompletion). Like every routing loop it skips crashed replicas,
// falling back to routeLeastLoaded when none is live.
func (e *Endpoint) route(arrival time.Duration, keys []promptKey, outTokens int) *replica {
	policy := e.cfg.Routing
	if policy != RouteCacheAffinity && policy != RouteShortestCompletion {
		return e.routeLeastLoaded(arrival)
	}
	act := e.replicas[:e.active]
	var best *replica
	var bestScore int
	var bestDone time.Duration
	for i := range act {
		if e.fxDown(i, arrival) {
			continue
		}
		r := &act[i]
		hit := r.cache.matchKey(keys[0])
		pen := e.penalty(r, keys, hit)
		if policy == RouteCacheAffinity {
			if score := hit - pen; best == nil || score > bestScore || (score == bestScore && r.freeAt < best.freeAt) {
				best, bestScore = r, score
			}
		} else if done := e.estimateCompletion(r, arrival, keys[0].total, hit, pen, outTokens); best == nil || done < bestDone {
			best, bestDone = r, done
		}
	}
	if best == nil {
		return e.routeLeastLoaded(arrival)
	}
	return best
}

// routeLeastLoaded returns the replica with the earliest freeAt, lowest
// index on ties — the router every multi-replica deployment runs. Like
// every routing loop, it scans only the active replicas (replicas[:active]
// — the full set unless autoscaling has parked some), and under fault
// injection only the LIVE ones — a crashed replica takes no traffic until
// its repair window ends (fxDown), unless every candidate is down, in which
// case the earliest restart wins (the fallback every routing loop shares).
func (e *Endpoint) routeLeastLoaded(t time.Duration) *replica {
	act := e.replicas[:e.active]
	var best *replica
	for i := range act {
		if e.fxDown(i, t) {
			continue
		}
		if best == nil || act[i].freeAt < best.freeAt {
			best = &act[i]
		}
	}
	if best == nil {
		best = &act[0]
		for i := 1; i < len(act); i++ {
			if act[i].freeAt < best.freeAt {
				best = &act[i]
			}
		}
	}
	return best
}

// affinityScore is the cache-aware placement score of one replica: warm
// tokens gained minus warm tokens an over-budget insertion would evict
// (prefixCache.pressure — zero without a token budget, so entry-count
// deployments keep the seed's pure-affinity behaviour). Charging the
// capacity side is what stops a shared global preamble from pulling every
// prompt onto the one replica that served it first: once that replica's
// cache is full of warm state, the eviction penalty makes a colder,
// emptier replica score higher and the preamble spreads.
func affinityScore(r *replica, k promptKey) (score, hit int) {
	hit = r.cache.matchKey(k)
	return hit - r.cache.pressure(k, hit), hit
}

// penalty is the capacity-pressure penalty for placing the keyed prompts
// on r, whose cache already holds hit tokens of the head prompt: the warm
// tokens the insertion would evict. One prompt charges its uncached suffix
// (prefixCache.pressure). An explicit batch charges every member's chain,
// shared uncached prefixes counted once (prefixCache.batchGrowth): a
// 16-member step-phase batch plants 16 persona chains, and charging only
// one member's growth would let aggregated traffic pile onto the warm
// replica that single-call routing has learned to spread. Zero without a
// token budget, so entry-count deployments keep pure-affinity placement.
func (e *Endpoint) penalty(r *replica, keys []promptKey, hit int) int {
	if len(keys) == 1 {
		return r.cache.pressure(keys[0], hit)
	}
	if r.cache == nil || r.cache.capTokens <= 0 {
		return 0
	}
	if e.seen == nil {
		e.seen = make(map[uint64]bool, 64)
	}
	return r.cache.pressureGrowth(r.cache.batchGrowth(keys, e.seen))
}

// estimateCompletion prices a placement on r without mutating cache or
// timeline state: start (arrival or r freeing, whichever is later) plus
// single-sequence service of total prompt tokens, hit of them cached, and
// outTokens generated. The estimate ignores join-window coalescing — like
// real routers, it prices the request as if it ran alone. The capacity
// penalty pen is added to the effective prefill at the cache discount it
// forfeits: warm tokens the insertion evicts will have to be re-prefilled
// by their owners later. Without a token budget pen is zero.
func (e *Endpoint) estimateCompletion(r *replica, arrival time.Duration, total, hit, pen, outTokens int) time.Duration {
	start := max(arrival, r.freeAt)
	eff := e.discountedEff(hit, total) + float64(pen)*(1-e.cfg.CachedPrefillFrac)
	return start + e.cfg.Profile.BatchServiceTime(1, eff, outTokens)
}

// routeIdle picks, among replicas idle at virtual time now, the launch
// target for a batch whose head request carries the keyed prompt — the
// open-loop (Replay) flavor of routing, where launches only ever happen on
// idle replicas. Returns nil when no replica is idle.
func (e *Endpoint) routeIdle(now time.Duration, k promptKey) *replica {
	var best *replica
	bestScore := 0
	act := e.replicas[:e.active]
	for i := range act {
		r := &act[i]
		if r.freeAt > now {
			continue
		}
		switch e.cfg.Routing {
		case RouteCacheAffinity, RouteShortestCompletion:
			// Among idle replicas, completion differs only through the
			// cache discount and the capacity penalty, so both cache-aware
			// policies reduce to the best capacity-adjusted prefix match —
			// with the same earliest-freeAt tie-break as closed-loop
			// cache-affinity route, so open and closed loop route
			// identically on identical state.
			score, _ := affinityScore(r, k)
			if best == nil || score > bestScore ||
				(score == bestScore && r.freeAt < best.freeAt) {
				best, bestScore = r, score
			}
		default:
			if best == nil || r.freeAt < best.freeAt {
				best = r
			}
		}
	}
	return best
}
