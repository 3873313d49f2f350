package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"time"

	"embench/internal/metrics"
	"embench/internal/serve"
	"embench/internal/serve/obs"
	"embench/internal/trace"
)

// result is what one round produced.
type result interface {
	// ops counts the round's operations: episodes, or offered requests.
	ops() int
	// requests counts the LLM requests the round issued or offered.
	requests() int
	// episodeCount counts the round's closed-loop episodes; 0 on replays.
	episodeCount() int
	// digest hashes every simulated output of the round.
	digest(d *digester)
	// check returns the first output check the round fails, or nil.
	check() error
	// virtual reports the round's virtual-clock metrics by name.
	virtual() map[string]float64
}

// digester feeds simulated outputs into a hash. Bulk records go in as
// fixed-width fields; small aggregates go in through fmt, whose map output
// is key-sorted.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digester) value(v any) { fmt.Fprintf(d.h, "%+v\n", v) }

// episodes is a batch of closed-loop episodes with their traces.
type episodes struct {
	eps    []metrics.Episode
	traces []*trace.Trace
}

func (r episodes) ops() int { return len(r.eps) }

func (r episodes) episodeCount() int { return len(r.eps) }

func (r episodes) requests() int {
	n := 0
	for _, e := range r.eps {
		n += e.LLMCalls
	}
	return n
}

func (r episodes) digest(d *digester) {
	for i, e := range r.eps {
		d.value(e)
		for _, ev := range r.traces[i].Events {
			d.int(int64(ev.Step))
			d.str(ev.Agent)
			d.str(string(ev.Module))
			d.str(ev.Kind)
			d.int(int64(ev.Latency))
			d.int(int64(ev.PromptTokens))
			d.int(int64(ev.OutputTokens))
			d.int(b2i(ev.LLMCall) | b2i(ev.Useful)<<1)
			d.str(ev.Note)
		}
	}
}

// check has nothing to add to the digest comparison: an episode's metrics
// are a pure reduction of its trace.
func (r episodes) check() error { return nil }

func (r episodes) virtual() map[string]float64 {
	s := metrics.Summarize(r.eps)
	var plan, calls []float64
	prompt := 0
	for _, tr := range r.traces {
		for _, ev := range tr.Events {
			if !ev.LLMCall {
				continue
			}
			calls = append(calls, ev.Latency.Seconds())
			prompt += ev.PromptTokens
			if ev.Module == trace.Planning {
				plan = append(plan, ev.Latency.Seconds())
			}
		}
	}
	return map[string]float64{
		"task_success_rate":          s.SuccessRate,
		"task_latency_s":             s.MeanDuration.Seconds(),
		"plan_latency_p50_s":         quantile(plan, 0.50),
		"plan_latency_p99_s":         quantile(plan, 0.99),
		"e2e_latency_p50_s":          quantile(calls, 0.50),
		"e2e_latency_p99_s":          quantile(calls, 0.99),
		"slo_attainment":             fracAtMost(calls, slo.Seconds(), len(calls)),
		"comms.useful_msg_rate":      s.MessageRate,
		"llm.prompt_tokens_per_call": ratio(float64(prompt), float64(len(calls))),
	}
}

// fleet is a batch of episodes that shared one endpoint, with the
// endpoint's own totals.
type fleet struct {
	episodes
	serving metrics.Serving
}

func (r fleet) digest(d *digester) {
	r.episodes.digest(d)
	d.value(r.serving)
}

// check verifies that the episodes' serving shares merge exactly to the
// endpoint's totals in every field the shares carry as served. Service,
// batch sizes and the latency histogram are excluded: a later
// continuous-batching join restates them at the endpoint only.
func (r fleet) check() error {
	var merged metrics.Serving
	for _, e := range r.eps {
		merged = merged.Merge(e.Serving)
	}
	s := r.serving
	if merged.Requests != s.Requests || merged.QueueWait != s.QueueWait ||
		merged.PrefillTokens != s.PrefillTokens || merged.CachedTokens != s.CachedTokens ||
		merged.QueueWaitHist != s.QueueWaitHist {
		return fmt.Errorf("episode serving shares do not merge to the fleet totals: "+
			"requests %d/%d, queue wait %v/%v, prefill %d/%d, cached %d/%d",
			merged.Requests, s.Requests, merged.QueueWait, s.QueueWait,
			merged.PrefillTokens, s.PrefillTokens, merged.CachedTokens, s.CachedTokens)
	}
	return nil
}

func (r fleet) virtual() map[string]float64 {
	m := r.episodes.virtual()
	s := r.serving
	m["serve.cache_hit_rate"] = s.CacheHitRate()
	m["serve.max_replica_share"] = s.MaxReplicaShare()
	m["serve.batch_occupancy"] = s.BatchOccupancy()
	// Fleet episodes see only per-call serving outcomes, so the queue-wait
	// quantiles come from the endpoint's fixed-bucket histogram.
	m["serve.queue_wait_p50_s"] = s.QueueWaitHist.Quantile(0.50).Seconds()
	m["serve.queue_wait_p99_s"] = s.QueueWaitHist.Quantile(0.99).Seconds()
	m["serve.evicted_tokens_per_request"] = ratio(float64(s.EvictedTokens), float64(s.Requests))
	return m
}

// rung is one open-loop replay of one traffic stream.
type rung struct {
	tenants int
	reqs    []serve.Request
	res     serve.ReplayResult
}

// replay is one or more open-loop replays; the rung at index reported
// carries the workload's latency, attainment and cost metrics.
type replay struct {
	rungs    []rung
	reported int
	// staticReplicas prices replica-seconds when the deployment does not
	// autoscale: replicas times makespan.
	staticReplicas int
	// rec holds the reported rung's flight-recorder stream, when recorded.
	rec *obs.Recorder
}

// events returns the recorded stream, or nil when none was recorded.
func (r replay) events() []obs.Event {
	if r.rec == nil {
		return nil
	}
	return r.rec.Events()
}

func (r replay) ops() int {
	n := 0
	for _, g := range r.rungs {
		n += len(g.reqs)
	}
	return n
}

func (r replay) requests() int { return r.ops() }

func (r replay) episodeCount() int { return 0 }

func (r replay) digest(d *digester) {
	for _, g := range r.rungs {
		for _, c := range g.res.Completions {
			d.str(c.Agent)
			for _, t := range []time.Duration{c.Arrival, c.Start, c.Done, c.QueueWait, c.PrefillDone, c.DecodeWait} {
				d.int(int64(t))
			}
			d.int(int64(c.BatchSize))
			d.int(int64(c.PromptTokens))
			d.int(int64(c.CachedTokens))
			d.str(string(c.Outcome))
			d.int(int64(c.Retries))
			d.int(b2i(c.Hedged))
		}
		d.value(g.res.Stats)
		d.int(int64(g.res.Batches))
		d.int(int64(g.res.Makespan))
	}
	for _, ev := range r.events() {
		d.int(ev.Seq)
		d.str(string(ev.Kind))
		for _, v := range []int64{
			int64(ev.T), int64(ev.Shard), int64(ev.Replica), ev.Req, int64(ev.Client),
			int64(ev.Priority), int64(ev.Batch), int64(ev.Tokens), int64(ev.Cached),
			int64(ev.Out), int64(ev.Wait), int64(ev.Dur), int64(ev.Decode),
			int64(ev.Active), int64(math.Float64bits(ev.Util)),
			int64(len(ev.Scores)), int64(len(ev.Sections)),
		} {
			d.int(v)
		}
		d.str(ev.Agent)
		d.str(ev.Policy)
		d.str(ev.Stage)
	}
}

// check verifies request accounting on every rung (served, shed and timed
// out add up to offered, and the live stats agree with the completions)
// and, when a recorder was attached, that the stream validates and its
// reduction equals the live stats.
func (r replay) check() error {
	for _, g := range r.rungs {
		var served, shed, timedOut int
		for _, c := range g.res.Completions {
			switch c.Outcome {
			case serve.OutcomeShed:
				shed++
			case serve.OutcomeTimedOut:
				timedOut++
			default:
				served++
			}
		}
		s := g.res.Stats
		if len(g.res.Completions) != len(g.reqs) || s.Requests+s.ShedRequests+s.TimedOut != len(g.reqs) ||
			s.Requests != served || s.ShedRequests != shed || s.TimedOut != timedOut {
			return fmt.Errorf("%d tenants: offered %d, completions %d, stats served+shed+timed-out %d+%d+%d, completions %d+%d+%d",
				g.tenants, len(g.reqs), len(g.res.Completions), s.Requests, s.ShedRequests, s.TimedOut,
				served, shed, timedOut)
		}
	}
	evs := r.events()
	if evs == nil {
		return nil
	}
	if err := obs.Validate(evs); err != nil {
		return err
	}
	// Evicted tokens are left out: when a crash kills a batch it has just
	// admitted, the LRU evictions of that admission reach the live stats but
	// no cache_evict event, so the stream undercounts them.
	sum := obs.Summarize(evs, 0)
	s := r.rungs[r.reported].res.Stats
	if sum.Requests != s.Requests || sum.TotalWait != s.QueueWait ||
		sum.PromptTokens != s.PrefillTokens || sum.CachedTokens != s.CachedTokens ||
		sum.ScaleUps != s.ScaleUps || sum.ScaleDowns != s.ScaleDowns {
		return fmt.Errorf("recorded stream disagrees with live stats: requests %d/%d, wait %v/%v, "+
			"prompt %d/%d, cached %d/%d, scale %d+%d/%d+%d",
			sum.Requests, s.Requests, sum.TotalWait, s.QueueWait, sum.PromptTokens, s.PrefillTokens,
			sum.CachedTokens, s.CachedTokens, sum.ScaleUps, sum.ScaleDowns, s.ScaleUps, s.ScaleDowns)
	}
	return nil
}

func (r replay) virtual() map[string]float64 {
	g := r.rungs[r.reported]
	s := g.res.Stats
	var lat, wait []float64
	var total, prefillWait, decodeWait time.Duration
	for _, c := range g.res.Completions {
		if c.Outcome != serve.OutcomeServed {
			continue
		}
		lat = append(lat, (c.Done - c.Arrival).Seconds())
		wait = append(wait, (c.QueueWait + c.DecodeWait).Seconds())
		total += c.Done - c.Arrival
		prefillWait += c.QueueWait
		decodeWait += c.DecodeWait
	}
	cost := s.ReplicaTime.Seconds()
	if cost == 0 {
		cost = float64(r.staticReplicas) * g.res.Makespan.Seconds()
	}
	m := map[string]float64{
		"e2e_latency_p50_s":                quantile(lat, 0.50),
		"e2e_latency_p99_s":                quantile(lat, 0.99),
		"slo_attainment":                   fracAtMost(lat, slo.Seconds(), len(g.reqs)),
		"replica_seconds":                  cost,
		"serve.cache_hit_rate":             s.CacheHitRate(),
		"serve.max_replica_share":          s.MaxReplicaShare(),
		"serve.batch_occupancy":            s.BatchOccupancy(),
		"serve.queue_wait_p50_s":           quantile(wait, 0.50),
		"serve.queue_wait_p99_s":           quantile(wait, 0.99),
		"serve.evicted_tokens_per_request": ratio(float64(s.EvictedTokens), float64(s.Requests)),
		"serve.retries_per_request":        ratio(float64(s.Retries), float64(len(g.reqs))),
		"serve.shed_timeout_share":         ratio(float64(s.ShedRequests+s.TimedOut), float64(len(g.reqs))),
		"serve.hedge_win_rate":             ratio(float64(s.HedgeWins), float64(s.HedgesIssued)),
		"serve.failed_batches":             float64(s.FailedBatches),
		"serve.downtime_share":             ratio(s.ReplicaDowntime.Seconds(), cost),
		"serve.prefill_wait_share":         ratio(prefillWait.Seconds(), total.Seconds()),
		"serve.decode_wait_share":          ratio(decodeWait.Seconds(), total.Seconds()),
		"serve.handoff_ms_per_request":     ratio(s.HandoffTime.Seconds()*1000, float64(s.Requests)),
	}
	if len(r.rungs) > 1 { // a tenant ladder
		m["slo_capacity_rps"] = r.sloCapacity()
	}
	if evs := r.events(); evs != nil {
		var cw countingWriter
		if err := obs.WriteJSONL(&cw, evs); err == nil {
			m["serve.obs.jsonl_bytes_per_event"] = ratio(float64(cw), float64(len(evs)))
		}
		m["serve.obs.events_per_request"] = ratio(float64(len(evs)), float64(len(g.reqs)))
	}
	return m
}

// sloCapacity is the offered rate of the highest rung that meets the SLO
// at p99 without a growing backlog: its makespan ends within one SLO of
// its last arrival. Zero when no rung qualifies.
func (r replay) sloCapacity() float64 {
	best := 0.0
	for _, g := range r.rungs {
		var lat []float64
		var last time.Duration
		for i, c := range g.res.Completions {
			if c.Outcome == serve.OutcomeServed {
				lat = append(lat, (c.Done - c.Arrival).Seconds())
			}
			if a := g.reqs[i].Arrival; a > last {
				last = a
			}
		}
		if quantile(lat, 0.99) <= slo.Seconds() && g.res.Makespan-last <= slo {
			if rate := float64(len(g.reqs)) / trafficHorizon.Seconds(); rate > best {
				best = rate
			}
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of xs, an exact order
// statistic: the smallest value with at least a q share of xs at or below
// it. It sorts xs in place; zero when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// fracAtMost reports the share of n offered operations whose value in xs
// is at most limit; operations missing from xs count as misses.
func fracAtMost(xs []float64, limit float64, n int) float64 {
	k := 0
	for _, x := range xs {
		if x <= limit {
			k++
		}
	}
	return ratio(float64(k), float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
