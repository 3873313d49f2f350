// Package obs is the serving stack's flight recorder: a deterministic,
// virtual-time event log of every request's lifecycle through the shared
// endpoint — submit, fleet-merge admission, routing (policy and per-replica
// pressure scores), batch join/seal, completion — plus cache traffic
// (hit/miss/evict/flush with token counts) and autoscaler activity
// (evaluation ticks, scale-up/down).
//
// Events flow through the Sink seam serve threads into Endpoint, Fleet,
// ShardedFleet and Replay (Endpoint.SetSink and friends). A nil sink is the
// zero-cost default: every emission in serve is guarded, so un-instrumented
// runs are byte-identical to pre-recorder builds and allocate nothing extra
// per request.
//
// # Determinism contract
//
// Event content is as deterministic as the serving path that emits it: a
// single endpoint (or a Replay, or one fleet's merged admission order)
// emits an identical event sequence for identical inputs. What is NOT
// deterministic is cross-source interleaving into one shared Recorder —
// shards of a ShardedFleet and concurrently running per-episode endpoints
// append in goroutine-scheduling order, so Seq values differ run to run
// while each source's own event subsequence (filter by Shard, or record per
// episode) is stable. Cross-episode aggregation should therefore sample or
// summarize per source and merge (Series.Merge), exactly like
// metrics.Serving.
//
// Latency-bearing events carry AS-SERVED values: a continuous-batching join
// restates earlier members' completions at the batch's new end, and those
// restatements appear as the join's own batch_join event (Dur = the
// extension), not as rewrites of already-emitted completes. This matches
// the per-episode accounting convention (serve.FleetClient shares); the
// endpoint's sealed LatencyHist restates, so histograms derived from
// complete events can differ from it by exactly the join extensions.
package obs

import (
	"sync"
	"time"
)

// Kind labels one lifecycle event.
type Kind string

// Event kinds, in rough lifecycle order.
const (
	// KindConfig opens a stream: emitted once per sink attachment with the
	// endpoint's effective shape (Replica = pool size, Active = initially
	// active replicas, Batch = MaxBatch, Tokens = CacheTokens, Policy =
	// routing).
	KindConfig Kind = "config"
	// KindSubmit is a request entering the endpoint, before routing. Carries
	// everything replay needs to reconstruct the request: Agent, T (arrival),
	// Out (generation length), Priority and the prompt section chain.
	KindSubmit Kind = "submit"
	// KindAdmit is a fleet-merge admission: client Client's pending request
	// (or batch of Batch calls) won the conservative merge. The endpoint
	// events it triggers follow immediately in the same goroutine.
	KindAdmit Kind = "admit"
	// KindRoute is a placement decision: Replica won under Policy; Scores
	// holds every active replica's capacity-adjusted affinity score (warm
	// tokens minus eviction pressure) at decision time.
	KindRoute Kind = "route"
	// KindBatchStart is a new batch launching on Replica: Batch sequences,
	// Tokens effective prefill, Out max generation, Dur the batch service
	// time, Decode its decode share.
	KindBatchStart Kind = "batch_start"
	// KindBatchJoin is a continuous-batching join: the request rode Replica's
	// in-flight frontier, growing it to Batch sequences; Dur is the batch-end
	// extension the join restated earlier members by.
	KindBatchJoin Kind = "batch_join"
	// KindBatchSeal closes a replica's frontier batch (next batch launching,
	// or replica retiring): Batch members' latencies became final. Only
	// closed-loop serving emits it; an open-loop replay batch never grows
	// after launch, so its completions are final when emitted.
	KindBatchSeal Kind = "batch_seal"
	// KindComplete is a served request: T is completion time, Dur end-to-end
	// latency (as served; see the package comment), Wait its queueing share,
	// Batch the batch size, Tokens/Cached the prompt pricing split.
	KindComplete Kind = "complete"
	// KindCacheHit / KindCacheMiss price one admission against Replica's
	// prefix cache: Cached of Tokens prompt tokens were warm. A hit is any
	// admission with Cached > 0.
	KindCacheHit  Kind = "cache_hit"
	KindCacheMiss Kind = "cache_miss"
	// KindCacheEvict is capacity pressure: admitting onto Replica displaced
	// Tokens warm tokens (LRU chain eviction).
	KindCacheEvict Kind = "cache_evict"
	// KindCacheFlush is a scale-down flush: retiring Replica destroyed
	// Tokens warm tokens.
	KindCacheFlush Kind = "cache_flush"
	// KindScaleTick is one autoscaler evaluation: Util the window
	// utilization, Active the active replica count entering the tick.
	KindScaleTick Kind = "scale_tick"
	// KindScaleUp / KindScaleDown record a scaling decision; Active is the
	// NEW active replica count.
	KindScaleUp   Kind = "scale_up"
	KindScaleDown Kind = "scale_down"
	// KindHandoff is a disaggregated endpoint's prefill→decode KV transfer:
	// T is when prefill finished, Tokens the prompt KV pages moved, Dur the
	// priced transfer time (the decode pool sees the request at T + Dur).
	// Stage is "handoff"; stage-pool events carry Stage "prefill"/"decode".
	KindHandoff Kind = "handoff"
	// KindReplicaDown is an injected replica crash (serve.Faults): T is the
	// crash time, Tokens the warm cache tokens the crash destroyed (the
	// restart comes back cold), Dur the scheduled repair window, Batch the
	// in-flight sequences the crash killed (0 for an idle-replica crash —
	// killed requests re-enter admission and re-serve or shed, never vanish).
	KindReplicaDown Kind = "replica_down"
	// KindReplicaUp is the matching restart: T is the repair-window end at
	// which Replica takes traffic again, with a cold cache.
	KindReplicaUp Kind = "replica_up"
	// KindRetry is a client re-issue after a deadline timeout: T is when the
	// retried attempt re-enters admission, Dur the seeded backoff it waited,
	// Batch the attempt number (1 = first retry).
	KindRetry Kind = "retry"
	// KindHedge is a duplicate hedged attempt: the request had waited
	// HedgePolicy.Delay without completing, so a second copy entered
	// admission at T. First completion wins; the loser is cancelled (and
	// priced, if it reached a batch).
	KindHedge Kind = "hedge"
	// KindShed is a load-shedding rejection: admission refused the request
	// at T under queue pressure (ShedPolicy). Priority carries the class the
	// decision honored. Shed requests are surfaced, not silently dropped.
	KindShed Kind = "shed"
	// KindTimeout is a deadline expiry: the attempt had not started service
	// by T (its arrival plus Request.Deadline, carried in Dur). A retry
	// event follows while budget remains; otherwise the request resolves
	// timed-out.
	KindTimeout Kind = "timeout"
)

// knownKinds is the schema's closed kind set (Validate).
var knownKinds = map[Kind]bool{
	KindConfig: true, KindSubmit: true, KindAdmit: true, KindRoute: true,
	KindBatchStart: true, KindBatchJoin: true, KindBatchSeal: true,
	KindComplete: true, KindCacheHit: true, KindCacheMiss: true,
	KindCacheEvict: true, KindCacheFlush: true, KindScaleTick: true,
	KindScaleUp: true, KindScaleDown: true, KindHandoff: true,
	KindReplicaDown: true, KindReplicaUp: true, KindRetry: true,
	KindHedge: true, KindShed: true, KindTimeout: true,
}

// Section is one prompt section's recorded identity: enough to rebuild the
// prompt for replay under either cache-identity model (text rides along so
// content hashing reproduces; token-only sections record just name/tokens).
type Section struct {
	Name      string `json:"name"`
	Text      string `json:"text,omitempty"`
	Tokens    int    `json:"tokens,omitempty"`
	Droppable bool   `json:"droppable,omitempty"`
}

// Event is one flight-recorder record. The struct is flat — one shape for
// every kind, unused fields zero — so JSONL stays greppable and the schema
// is a single table (see the Kind constants for which fields each kind
// populates). Durations are nanoseconds of VIRTUAL time.
type Event struct {
	Seq     int64         `json:"seq"`
	Kind    Kind          `json:"kind"`
	T       time.Duration `json:"t"` // virtual timestamp
	Shard   int           `json:"shard"`
	Replica int           `json:"replica"`

	Req      int64  `json:"req,omitempty"`    // request id (per-source counter)
	Agent    string `json:"agent,omitempty"`  // submitting agent
	Client   int    `json:"client,omitempty"` // fleet episode id (admit)
	Priority int    `json:"priority,omitempty"`

	Policy string `json:"policy,omitempty"` // routing policy (route/config)
	Scores []int  `json:"scores,omitempty"` // per-replica pressure scores (route)

	Batch  int `json:"batch,omitempty"`  // batch size / MaxBatch (config)
	Tokens int `json:"tokens,omitempty"` // prompt/evicted/flushed/budget tokens
	Cached int `json:"cached,omitempty"` // warm prompt tokens
	Out    int `json:"out,omitempty"`    // generation length

	Wait   time.Duration `json:"wait,omitempty"`   // queueing share (complete)
	Dur    time.Duration `json:"dur,omitempty"`    // latency / service / extension
	Decode time.Duration `json:"decode,omitempty"` // decode share (batch_start)

	Active int     `json:"active,omitempty"` // active replicas (scale/config)
	Util   float64 `json:"util,omitempty"`   // window utilization (scale_tick)

	// Stage tags disaggregated-endpoint events with the pool that emitted
	// them ("prefill"/"decode") or "handoff" for the transfer itself; empty
	// on monolithic endpoints, so their JSONL is byte-identical to
	// pre-disaggregation traces.
	Stage string `json:"stage,omitempty"`

	Sections []Section `json:"sections,omitempty"` // prompt chain (submit)
}

// Arrival reports a complete event's request arrival time (T - Dur); zero
// for other kinds.
func (e Event) Arrival() time.Duration {
	if e.Kind != KindComplete {
		return 0
	}
	return e.T - e.Dur
}

// Start reports a complete event's service start (arrival + queue wait).
func (e Event) Start() time.Duration { return e.Arrival() + e.Wait }

// Sink receives flight-recorder events. Implementations must tolerate
// concurrent calls when attached to more than one source (a ShardedFleet's
// shards, parallel per-episode endpoints); a single endpoint or fleet calls
// it from one goroutine at a time. Sinks must not retain ev.Scores or
// ev.Sections beyond the call unless they own them (the serve emitters
// allocate fresh slices per event, so retaining is safe there).
type Sink interface {
	Event(ev Event)
}

// Recorder is the standard in-memory Sink: it assigns arrival Seq numbers
// and keeps every event. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements Sink.
func (r *Recorder) Event(ev Event) {
	r.mu.Lock()
	ev.Seq = int64(len(r.events))
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns the recorded stream in arrival order. The returned slice
// is a copy; the recorder may keep recording.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}
