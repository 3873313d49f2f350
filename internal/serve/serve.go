// Package serve simulates a shared LLM serving endpoint: the substrate many
// embodied agents contend for when they stop getting a dedicated model each
// (paper Fig. 6/7 and Recs. 1–3).
//
// An Endpoint owns N replicas of one model deployment, an admission queue,
// a continuous-batching scheduler and a per-replica prefix/KV cache.
// Requests carry submission timestamps from per-agent virtual clocks; the
// endpoint orders them on a global virtual timeline and returns completion
// times, so queueing delay, batching gains and cache hit rates all emerge
// deterministically from the root seed — no wall clock, no goroutines.
//
// # Modes
//
// Three modes share the same pricing model (llm.Profile.BatchServiceTime,
// the per-replica prefix caches, and one admission helper — see
// admission.go — so a given request sequence costs the same whichever
// path carries it):
//
//   - Closed loop: Endpoint implements llm.Backend, so live episodes route
//     every client call through the shared endpoint. Requests are admitted
//     in submission order; a request arriving within the batching window of
//     a replica's in-flight batch joins it (continuous batching), otherwise
//     it starts a new batch on the replica the routing policy picks.
//     Explicitly aggregated step-phase batches (llm.BatchBackend, paper
//     Rec. 1) launch as one batch via ServeBatch. Serve is ServeBatch of
//     one call: both share one admission path, and only a single call may
//     join an in-flight batch.
//   - Open loop: Replay takes a full request trace (arrival offsets, prompt
//     structure, generation lengths) and runs a discrete-event loop over
//     it, forming batches of up to MaxBatch that launch when full, when the
//     oldest queued request has waited MaxWait, or when no further arrivals
//     are pending. This is the classic serving-benchmark shape: fixed
//     arrival schedule, swept scheduler policy.
//   - Fleet: a Fleet wraps one Endpoint and attaches several concurrently
//     running episodes to it. Each episode talks to its own FleetClient
//     (an llm.Backend); the fleet merges the episodes' submission streams
//     with a conservative rule — a request is only admitted once every
//     still-running episode has revealed its next request, earliest
//     revealed (arrival, episode) first — so cross-episode contention is
//     simulated deterministically no matter how the episode goroutines
//     are scheduled.
//
// # Routing
//
// Multi-replica endpoints place each new batch by a RoutingPolicy:
// least-loaded (earliest-free replica), cache-affinity (replica with the
// warmest matching prefix cache) or shortest-expected-completion (queueing
// plus cache-discounted service, the latency-aware blend). One router
// places single calls and explicit batches alike: a batch by its head
// member's prefix, charged for the cache capacity all its members' chains
// would take. Caches are per replica, so routing decides not just load
// spread but which prefixes stay hot where.
//
// # Determinism
//
// Everything in this package is driven by virtual time and breaks ties on
// submission order or replica index. The only concurrency is Fleet's, and
// it is barrier-synchronized on virtual arrivals: the merged admission
// order is a pure function of the episodes' request timelines. See
// docs/ARCHITECTURE.md for the clock model.
package serve

import (
	"fmt"
	"time"

	"embench/internal/llm"
)

// Config describes one shared serving deployment.
type Config struct {
	// Profile prices prefill/decode/overhead for every replica. A zero
	// profile (Name == "") is filled in by the episode runner with the
	// workload's planner profile.
	Profile llm.Profile
	// Replicas is the number of identical model instances behind the
	// endpoint (default 1).
	Replicas int
	// Routing places each new batch on a replica: least-loaded (default),
	// cache-affinity or shortest-completion. See RoutingPolicy.
	Routing RoutingPolicy
	// MaxBatch caps sequences per continuous batch; <= 1 disables batching.
	// Explicit step-phase batches (ServeBatch) are not split by MaxBatch —
	// client-side aggregation supersedes the server's join cap.
	MaxBatch int
	// MaxWait is the batching window: in open-loop replay, how long the
	// oldest queued request may wait for companions before its batch
	// launches; in closed-loop serving, how far after a batch's start a new
	// arrival may still join it. Zero means "no waiting" — batches only
	// coalesce requests that are already simultaneous.
	MaxWait time.Duration
	// CacheTokens sizes each replica's prefix cache in TOKENS: the live
	// cached token footprint — the KV memory a real deployment pins — may
	// not exceed this budget; least-recently-touched prefix chains are
	// evicted (cascading to their extensions) to stay under it. 0 means no
	// token budget. A token budget also makes cache-aware routing
	// capacity-aware: placement charges the warm tokens an insertion would
	// evict (see RoutingPolicy), which is what keeps cache-affinity from
	// collapsing a shared-preamble workload onto one replica.
	CacheTokens int
	// CacheEntries is the deprecated entry-count fallback to CacheTokens:
	// it bounds each replica's prefix cache by the NUMBER of cached
	// section-prefix entries (LRU), not by the tokens they pin.
	//
	// Deprecated: prefer CacheTokens. An entry count ignores how many
	// tokens each entry pins, so capacity costs nothing and routing cannot
	// see memory pressure. The field is kept only for byte-compatible
	// reproduction of the fig8–fig10 reports, which predate token budgets.
	// Both budgets may be set (each is enforced independently); caching is
	// disabled only when both are 0.
	CacheEntries int
	// Identity selects how cached prefixes are keyed: IdentityShape
	// (default — (section name, token count) chains) or IdentityContent
	// (chained prompt.Section.Digest content hashes, so same-shape
	// different-content prompts no longer falsely share and reconverged
	// histories re-share). See CacheIdentity.
	Identity CacheIdentity
	// CachedPrefillFrac is the fraction of prefill cost still paid for
	// cache-hit tokens (default 0.1 — KV reuse is cheap but not free; must
	// be in (0, 1]).
	CachedPrefillFrac float64
	// Autoscale, when enabled (Interval > 0), scales the active replica
	// count within [Min, Max] on a virtual-time evaluation clock; Replicas
	// is the pool ceiling. The zero value keeps every replica active —
	// byte-identical to fixed-replica serving. See Autoscale.
	Autoscale Autoscale
	// Prefill and Decode, when both have Replicas > 0, disaggregate the
	// endpoint into two stage pools (see disagg.go): every request runs its
	// prompt processing on the prefill pool, pays the KV Handoff, then
	// queues on the decode pool, by (Priority, handoff arrival, submission
	// index), for token generation. Each pool batches, caches (decode-pool
	// caches are forced off), fails and autoscales independently. Replicas
	// must stay 0 when pools are set. Both zero (the default) keeps the
	// single-pool endpoint.
	Prefill PoolConfig
	// Decode configures the token-generation pool; see Prefill.
	Decode PoolConfig
	// Handoff prices the prefill→decode KV transfer. The zero value is a
	// free, instantaneous handoff.
	Handoff Handoff
	// Faults injects deterministic replica failures: seeded per-replica
	// crash-restart (MTBF/MTTR) and straggler (service-multiplier) processes,
	// independent of traffic. The zero value disables injection and keeps
	// every serving path byte-identical to fault-free builds. See Faults.
	Faults Faults
	// Retry, Hedge and Shed are the client-resilience policies open-loop
	// replay applies around the endpoint: deadline-triggered seeded-backoff
	// retries, duplicate hedged attempts (first completion wins), and
	// priority-aware admission shedding. All zero values disable. They act
	// in Replay only; closed-loop calls resolve synchronously and rely on
	// server-side crash re-admission.
	Retry RetryPolicy
	Hedge HedgePolicy
	Shed  ShedPolicy
}

// PoolConfig sizes one stage pool of a disaggregated endpoint. Fields
// mirror the monolithic Config knobs; a pool with CacheTokens and
// CacheEntries both 0 inherits the parent Config's cache budgets (prefill
// pool only — the decode pool never caches).
type PoolConfig struct {
	// Replicas is the pool size; > 0 on both pools enables disaggregation.
	Replicas int
	// MaxBatch caps sequences per continuous batch in this pool (<= 1
	// disables batching, same as Config.MaxBatch).
	MaxBatch int
	// MaxWait is this pool's batching window (see Config.MaxWait).
	MaxWait time.Duration
	// CacheTokens / CacheEntries bound this pool's per-replica prefix
	// caches; both 0 on the prefill pool means "inherit the parent
	// Config budgets".
	CacheTokens  int
	CacheEntries int
}

// Handoff prices the KV-cache transfer between the prefill and decode
// pools: a fixed per-request latency plus a token-proportional term
// (prompt KV pages streamed at TokensPerSec). The zero value transfers
// for free, instantly — useful for differential tests against the
// monolithic endpoint.
type Handoff struct {
	// Latency is the fixed per-request transfer setup cost.
	Latency time.Duration
	// TokensPerSec streams the prompt's KV pages; 0 means the
	// token-proportional term is free.
	TokensPerSec float64
}

// cost prices one request's handoff for a prompt of the given token count.
func (h Handoff) cost(promptTokens int) time.Duration {
	d := h.Latency
	if h.TokensPerSec > 0 && promptTokens > 0 {
		d += time.Duration(float64(promptTokens) / h.TokensPerSec * float64(time.Second))
	}
	return d
}

// ParseHandoff parses a handoff spec in the shared spec grammar (spec.go,
// docs/EXPERIMENTS.md): "" and "off" are the free handoff, and the fields
// are lat=DUR and rate=TOKENS_PER_SEC (either may be omitted). There is no
// "on". The cost is the zero value on error.
func ParseHandoff(s string) (Handoff, error) {
	var h Handoff
	err := parseSpec(&h, "handoff", s, nil, nil, "",
		durField("lat", &h.Latency, 0),
		floatField("rate", &h.TokensPerSec, rateRule))
	return h, err
}

// Disaggregated reports whether the config splits the endpoint into
// prefill and decode pools.
func (c Config) Disaggregated() bool {
	return c.Prefill.Replicas > 0 && c.Decode.Replicas > 0
}

// Validate rejects configurations that cannot describe a deployment.
// New panics on an invalid config; callers that want a clean error (the
// CLI) should Validate first.
func (c Config) Validate() error {
	if (c.Prefill.Replicas > 0) != (c.Decode.Replicas > 0) {
		return fmt.Errorf("serve: disaggregation needs both pools: prefill replicas %d, decode replicas %d", c.Prefill.Replicas, c.Decode.Replicas)
	}
	if c.Disaggregated() {
		if c.Replicas > 0 {
			return fmt.Errorf("serve: Replicas (%d) is the monolithic pool; leave it 0 when Prefill/Decode pools are set", c.Replicas)
		}
	}
	for _, p := range []struct {
		name string
		cfg  PoolConfig
	}{{"prefill", c.Prefill}, {"decode", c.Decode}} {
		if p.cfg.Replicas < 0 {
			return fmt.Errorf("serve: %s pool replicas must be >= 0, got %d", p.name, p.cfg.Replicas)
		}
		if p.cfg.MaxBatch < 0 {
			return fmt.Errorf("serve: %s pool max batch must be >= 0, got %d", p.name, p.cfg.MaxBatch)
		}
		if p.cfg.MaxWait < 0 {
			return fmt.Errorf("serve: %s pool max wait must be >= 0, got %v", p.name, p.cfg.MaxWait)
		}
		if p.cfg.CacheTokens < 0 || p.cfg.CacheEntries < 0 {
			return fmt.Errorf("serve: %s pool cache budgets must be >= 0", p.name)
		}
	}
	if c.Retry.Max < 0 || c.Shed.Queue < 0 {
		return fmt.Errorf("serve: retry budget and shed queue must be >= 0")
	}
	// The spec number rules (spec.go) hold for programmatic configs too;
	// zero selects a field's default or turns its process off.
	for _, f := range []struct {
		name string
		x    float64
		r    floatRule
	}{
		{"cached prefill fraction", c.CachedPrefillFrac, fracRule},
		{"autoscale up", c.Autoscale.UpUtil, fracRule},
		{"autoscale down", c.Autoscale.DownUtil, fracRule},
		{"straggler factor", c.Faults.StragglerFactor, slowRule},
		{"retry factor", c.Retry.Factor, factorRule},
		{"retry jitter", c.Retry.Jitter, jitterRule},
		{"handoff rate", c.Handoff.TokensPerSec, rateRule},
	} {
		if f.x != 0 && !f.r.ok(f.x) {
			return fmt.Errorf("serve: %s must be %s, got %v", f.name, f.r.want, f.x)
		}
	}
	for _, f := range []struct {
		name   string
		d, min time.Duration
	}{
		{"autoscale interval", c.Autoscale.Interval, minPeriod},
		{"autoscale cold start", c.Autoscale.ColdStart, 0},
		{"fault mtbf", c.Faults.MTBF, minPeriod},
		{"fault mttr", c.Faults.MTTR, 0},
		{"straggler gap", c.Faults.StragglerEvery, minPeriod},
		{"straggler length", c.Faults.StragglerFor, 0},
		{"retry base", c.Retry.Base, 0},
		{"hedge delay", c.Hedge.Delay, 0},
		{"shed wait", c.Shed.Wait, 0},
		{"handoff latency", c.Handoff.Latency, 0},
	} {
		if f.d != 0 && (f.d < f.min || f.d > maxSpecDuration) {
			return fmt.Errorf("serve: %s must be 0 or in [%v, %v], got %v", f.name, f.min, maxSpecDuration, f.d)
		}
	}
	if f := c.Faults; f.MTBF > 0 && f.StragglerEvery > 0 && f.MTTR/maxRepairGaps > f.StragglerEvery {
		return fmt.Errorf("serve: faults mttr %v spans more than %d straggler gaps of %v", f.MTTR, maxRepairGaps, f.StragglerEvery)
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Routing == "" {
		c.Routing = RouteLeastLoaded
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.CacheTokens < 0 {
		c.CacheTokens = 0
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.Identity == "" {
		c.Identity = IdentityShape
	}
	if c.CachedPrefillFrac == 0 {
		c.CachedPrefillFrac = 0.1
	}
	c.Autoscale = c.Autoscale.withDefaults(c.Replicas)
	c.Faults = c.Faults.withDefaults()
	c.Retry = c.Retry.withDefaults()
	return c
}
