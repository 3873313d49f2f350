package serve

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// priorityTraffic is bursty traffic whose requests draw Priority from
// 0–2 on a named stream, so the admission queue holds several classes and
// retries, hedges and crash re-queues enter it out of arrival order.
func priorityTraffic(tenants int, deadline time.Duration) []Request {
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: tenants,
		Horizon: 20 * time.Minute, Seed: 7})
	st := rng.New(7).Sub("serve/test").NewStream("priority")
	for i := range reqs {
		reqs[i].Priority = st.Intn(3)
		reqs[i].Deadline = deadline
	}
	return reqs
}

// priorityCells are the cells of the multi-priority golden: bursty traffic
// through the resilient loop — deadlines, crashes with stragglers, retry,
// hedge, priority-1 shedding, the autoscaler and a disaggregated
// deployment.
func priorityCells() []propertyCell {
	base := Config{
		Profile: llm.GPT4, Replicas: 3, MaxBatch: 4, MaxWait: 500 * time.Millisecond,
		CacheEntries: 128, CacheTokens: 8192, Identity: IdentityContent,
	}
	faults := Faults{MTBF: 2 * time.Minute, MTTR: 40 * time.Second,
		StragglerEvery: 90 * time.Second, StragglerFor: 20 * time.Second,
		StragglerFactor: 5, Seed: 3}
	retry := RetryPolicy{Max: 2, Base: 500 * time.Millisecond, Factor: 2, Jitter: 0.2}
	hedge := HedgePolicy{Delay: 8 * time.Second}
	cells := []struct {
		name     string
		tenants  int
		deadline time.Duration
		edit     func(*Config)
	}{
		{"plain", 32, 0, func(*Config) {}},
		{"unbatched", 24, 0, func(c *Config) { c.MaxBatch = 1 }},
		{"deadline", 32, 30 * time.Second, func(*Config) {}},
		{"deadline+retry", 32, 30 * time.Second, func(c *Config) { c.Retry = retry }},
		{"crash+hedge+shed-wait", 32, 0, func(c *Config) {
			c.Faults, c.Retry, c.Hedge = faults, retry, hedge
			c.Shed = ShedPolicy{Wait: 30 * time.Second, Priority: 1}
		}},
		{"crash+deadline+shed-queue", 32, 40 * time.Second, func(c *Config) {
			c.Faults, c.Retry, c.Hedge = faults, retry, hedge
			c.Shed = ShedPolicy{Queue: 24, Priority: 1}
		}},
		{"autoscaled+crash", 40, 40 * time.Second, func(c *Config) {
			c.Replicas = 6
			c.Autoscale = Autoscale{Interval: 15 * time.Second, ColdStart: 10 * time.Second,
				UpUtil: 0.5, DownUtil: 0.25, Min: 2, Max: 6}
			c.Faults, c.Retry, c.Hedge = faults, retry, hedge
			c.Shed = ShedPolicy{Wait: 35 * time.Second, Priority: 1}
		}},
		{"disaggregated", 32, 0, func(c *Config) {
			c.Replicas, c.MaxBatch, c.MaxWait = 0, 0, 0
			c.Prefill = PoolConfig{Replicas: 1, MaxBatch: 4, MaxWait: 500 * time.Millisecond}
			c.Decode = PoolConfig{Replicas: 2, MaxBatch: 8, MaxWait: 500 * time.Millisecond}
			c.Handoff = Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}
		}},
	}
	out := make([]propertyCell, len(cells))
	for i, c := range cells {
		cfg := base
		c.edit(&cfg)
		out[i] = propertyCell{name: c.name, cfg: cfg, reqs: priorityTraffic(c.tenants, c.deadline)}
	}
	return out
}

// TestReplayPriorityGolden replays every priority cell and pins each
// cell's ReplayResult and recorded event stream to
// testdata/replay_priority.golden.
func TestReplayPriorityGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range priorityCells() {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := obs.NewRecorder()
		res := ReplayObserved(c.cfg, c.reqs, rec)
		events := rec.Events()
		if err := obs.Validate(events); err != nil {
			t.Errorf("%s: recorded stream invalid: %v", c.name, err)
		}
		h := sha256.New()
		if err := obs.WriteJSONL(h, events); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%-26s reqs=%d batches=%d makespan=%d shed=%d timeout=%d retries=%d hedges=%d events=%d %s %x\n",
			c.name, len(res.Completions), res.Batches, res.Makespan, res.Stats.ShedRequests,
			res.Stats.TimedOut, res.Stats.Retries, res.Stats.HedgesIssued, len(events),
			replayDigest(res), h.Sum(nil)[:12])
	}
	checkGolden(t, "replay_priority.golden", b.String())
}
