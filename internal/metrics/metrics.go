// Package metrics aggregates episode outcomes into the quantities the paper
// reports: success rate, average steps, end-to-end latency, per-module
// latency shares, token totals and message efficiency.
//
// The two layers are Episode (one task attempt, reduced from its trace by
// FromTrace) and Summary (a batch of episodes for one configuration,
// reduced by Summarize). Serving carries shared-endpoint statistics
// (internal/serve) alongside either layer: for an episode it is that
// episode's own share of the endpoint traffic, for a summary the merged
// totals. Serving's fields are deliberately all sums — never means or
// rates — so aggregates merge exactly across episodes, fleets and worker
// pools regardless of grouping; the derived quantities (MeanQueueWait,
// BatchOccupancy, CacheHitRate) are computed on demand from the sums.
//
// Everything here is pure arithmetic over finished traces: no clocks, no
// randomness, so aggregation can never perturb determinism.
package metrics

import (
	"math"
	"time"

	"embench/internal/trace"
)

// Serving aggregates shared serving-endpoint statistics (internal/serve)
// for one episode or one replay: how long requests queued, how full the
// continuous batches ran, and how much prefill the prefix cache absorbed.
// All fields are sums so that batches of episodes merge exactly.
type Serving struct {
	Requests      int           // calls served by the endpoint
	Replicas      int           // replica count of the endpoint that served them
	QueueWait     time.Duration // total admission-queue delay
	Service       time.Duration // total in-batch service time
	BatchedSeqs   int           // sum over requests of the batch size they rode in
	PrefillTokens int           // prompt tokens submitted (pre-discount)
	CachedTokens  int           // prompt tokens served from the prefix cache
	// Cache-memory statistics (endpoint-level only; per-episode shares do
	// not carry them). EvictedTokens sums like the fields above;
	// CacheTokensPeak is the high-water mark of live cached tokens on any
	// single replica cache, so it merges by max — a capacity fact, not a
	// flow, and the one deliberate exception to the all-sums rule.
	CacheTokensPeak int // peak live cached tokens on one replica
	EvictedTokens   int // cached tokens removed by capacity eviction
	// ReplicaRequests is the per-replica request spread (index = replica),
	// merged element-wise; MaxReplicaShare derives the placement-collapse
	// signal capacity-aware routing exists to fix. Shard rollups merge
	// replica i of every shard into slot i: the spread then reads "i-th
	// replica of each shard", which keeps shares comparable because
	// round-robin placement makes shards statistically alike.
	ReplicaRequests []int
	// Tail-latency distributions: fixed shared buckets, so merging is
	// element-wise count addition and exactly equals the histogram of the
	// combined observation set — the all-sums rule extended to
	// distributions. QueueWaitHist holds per-request admission-queue
	// delays, LatencyHist per-request end-to-end latencies (queueing plus
	// batch service, restated to the batch's final completion when
	// continuous-batching joins extend it).
	QueueWaitHist Hist
	LatencyHist   Hist
	// Disaggregated-endpoint accounting (internal/serve Prefill/Decode
	// pools). All zero on monolithic endpoints. PrefillService/DecodeService
	// split Service by stage, PrefillWait/DecodeWait split QueueWait;
	// HandoffTime and HandoffTokens sum the priced prefill→decode KV
	// transfers. All sums, merging like every flow field above.
	PrefillService time.Duration
	DecodeService  time.Duration
	PrefillWait    time.Duration
	DecodeWait     time.Duration
	HandoffTime    time.Duration
	HandoffTokens  int
	// Autoscaler accounting. ReplicaTime integrates active replicas over
	// the run (replica-seconds — the cost axis autoscaling trades against
	// the tail); it stays zero on fixed-replica endpoints, where cost is
	// simply Replicas × makespan. ScaleUps/ScaleDowns count scaling events.
	ReplicaTime time.Duration
	ScaleUps    int
	ScaleDowns  int
	// Fault-injection and client-resilience accounting (internal/serve
	// Faults / Retry / Hedge / Shed). All zero on fault-free runs; all sums,
	// so fleets and episode batches merge exactly like every flow field.
	// ShedRequests counts admission-shed logical requests, Retries
	// re-issued attempts after a deadline timeout, HedgesIssued duplicate
	// hedge attempts and HedgeWins the hedges that finished first, TimedOut
	// logical requests abandoned with an exhausted retry budget,
	// FailedBatches in-flight batches killed by a replica crash, and
	// ReplicaDowntime integrates crash-window time on active replicas.
	ShedRequests    int
	Retries         int
	HedgesIssued    int
	HedgeWins       int
	TimedOut        int
	FailedBatches   int
	ReplicaDowntime time.Duration
}

// Merge combines two serving aggregates (e.g. across episodes).
func (s Serving) Merge(o Serving) Serving {
	s.Requests += o.Requests
	if o.Replicas > s.Replicas {
		s.Replicas = o.Replicas
	}
	s.QueueWait += o.QueueWait
	s.Service += o.Service
	s.BatchedSeqs += o.BatchedSeqs
	s.PrefillTokens += o.PrefillTokens
	s.CachedTokens += o.CachedTokens
	if o.CacheTokensPeak > s.CacheTokensPeak {
		s.CacheTokensPeak = o.CacheTokensPeak
	}
	s.EvictedTokens += o.EvictedTokens
	s.PrefillService += o.PrefillService
	s.DecodeService += o.DecodeService
	s.PrefillWait += o.PrefillWait
	s.DecodeWait += o.DecodeWait
	s.HandoffTime += o.HandoffTime
	s.HandoffTokens += o.HandoffTokens
	s.QueueWaitHist = s.QueueWaitHist.Merge(o.QueueWaitHist)
	s.LatencyHist = s.LatencyHist.Merge(o.LatencyHist)
	s.ReplicaTime += o.ReplicaTime
	s.ScaleUps += o.ScaleUps
	s.ScaleDowns += o.ScaleDowns
	s.ShedRequests += o.ShedRequests
	s.Retries += o.Retries
	s.HedgesIssued += o.HedgesIssued
	s.HedgeWins += o.HedgeWins
	s.TimedOut += o.TimedOut
	s.FailedBatches += o.FailedBatches
	s.ReplicaDowntime += o.ReplicaDowntime
	if len(o.ReplicaRequests) > 0 {
		if len(o.ReplicaRequests) > len(s.ReplicaRequests) {
			grown := make([]int, len(o.ReplicaRequests))
			copy(grown, s.ReplicaRequests)
			s.ReplicaRequests = grown
		} else {
			// Copy-on-write: never mutate the receiver's backing array.
			s.ReplicaRequests = append([]int(nil), s.ReplicaRequests...)
		}
		for i, n := range o.ReplicaRequests {
			s.ReplicaRequests[i] += n
		}
	}
	return s
}

// MaxReplicaShare reports the largest fraction of requests any one replica
// served — 1/Replicas for a perfectly even spread, 1.0 for a total
// collapse onto one replica. Zero when the spread was not recorded.
func (s Serving) MaxReplicaShare() float64 {
	total, max := 0, 0
	for _, n := range s.ReplicaRequests {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// MeanQueueWait reports the average admission-queue delay per request.
func (s Serving) MeanQueueWait() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return time.Duration(float64(s.QueueWait) / float64(s.Requests))
}

// BatchOccupancy reports the mean batch size a request was served in
// (1.0 = no batching ever happened).
func (s Serving) BatchOccupancy() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.BatchedSeqs) / float64(s.Requests)
}

// CacheHitRate reports the fraction of submitted prompt tokens whose
// prefill was served from the shared prefix cache.
func (s Serving) CacheHitRate() float64 {
	if s.PrefillTokens == 0 {
		return 0
	}
	return float64(s.CachedTokens) / float64(s.PrefillTokens)
}

// SLOAttainment reports the fraction of requests whose end-to-end latency
// met the target (resolved at histogram-bucket granularity — see
// Hist.FracBelow). 1.0 when no requests were recorded.
func (s Serving) SLOAttainment(slo time.Duration) float64 {
	return s.LatencyHist.FracBelow(slo)
}

// Episode is the outcome of one task attempt by one system configuration.
type Episode struct {
	Success      bool
	Steps        int           // environment steps consumed
	SimDuration  time.Duration // total simulated latency
	Breakdown    map[trace.Module]time.Duration
	LLMCalls     int
	PromptTokens int
	OutputTokens int
	Messages     trace.MessageStats
	LLMShare     float64 // fraction of latency in LLM calls
	ReachedLimit bool    // hit the step cap without finishing (Fig. 3 "Lmax")
	Serving      Serving // shared-endpoint stats; zero when serving direct
}

// FromTrace builds an Episode from a finished trace.
func FromTrace(tr *trace.Trace, success, reachedLimit bool, steps int) Episode {
	p, o := tr.Tokens()
	return Episode{
		Success:      success,
		Steps:        steps,
		SimDuration:  tr.Total(),
		Breakdown:    tr.Breakdown(),
		LLMCalls:     tr.LLMCalls(),
		PromptTokens: p,
		OutputTokens: o,
		Messages:     tr.Messages(),
		LLMShare:     tr.LLMShare(),
		ReachedLimit: reachedLimit,
	}
}

// Summary aggregates a batch of episodes for one configuration.
type Summary struct {
	Episodes     int
	SuccessRate  float64 // fraction in [0,1]
	MeanSteps    float64
	MeanDuration time.Duration
	MeanStepTime time.Duration // MeanDuration / MeanSteps
	ModuleShare  map[trace.Module]float64
	MeanLLMCalls float64
	MeanPrompt   float64
	MeanOutput   float64
	LLMShare     float64
	MessageRate  float64 // useful/generated across all episodes
	LimitRate    float64 // fraction of episodes that hit the step cap
	Serving      Serving // merged shared-endpoint stats across episodes
}

// Summarize reduces episodes into a Summary. An empty slice yields the zero
// Summary.
func Summarize(eps []Episode) Summary {
	var s Summary
	if len(eps) == 0 {
		return s
	}
	s.Episodes = len(eps)
	var steps, llmCalls, prompt, output int
	var dur time.Duration
	var llmShare float64
	totals := make(map[trace.Module]time.Duration)
	var grand time.Duration
	var gen, useful int
	for _, e := range eps {
		if e.Success {
			s.SuccessRate++
		}
		if e.ReachedLimit {
			s.LimitRate++
		}
		steps += e.Steps
		dur += e.SimDuration
		llmCalls += e.LLMCalls
		prompt += e.PromptTokens
		output += e.OutputTokens
		llmShare += e.LLMShare
		gen += e.Messages.Generated
		useful += e.Messages.Useful
		s.Serving = s.Serving.Merge(e.Serving)
		for m, d := range e.Breakdown {
			totals[m] += d
			grand += d
		}
	}
	n := float64(len(eps))
	s.SuccessRate /= n
	s.LimitRate /= n
	s.MeanSteps = float64(steps) / n
	s.MeanDuration = time.Duration(float64(dur) / n)
	if s.MeanSteps > 0 {
		s.MeanStepTime = time.Duration(float64(s.MeanDuration) / s.MeanSteps)
	}
	s.MeanLLMCalls = float64(llmCalls) / n
	s.MeanPrompt = float64(prompt) / n
	s.MeanOutput = float64(output) / n
	s.LLMShare = llmShare / n
	if gen > 0 {
		s.MessageRate = float64(useful) / float64(gen)
	}
	s.ModuleShare = make(map[trace.Module]float64, len(totals))
	if grand > 0 {
		for m, d := range totals {
			s.ModuleShare[m] = float64(d) / float64(grand)
		}
	}
	return s
}

// Ratio reports a/b, or NaN when b is zero. Used for ablation multipliers
// such as "disabling memory increases steps by 1.61×".
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// Pts converts a success-rate delta to percentage points.
func Pts(a, b float64) float64 { return (a - b) * 100 }
