package serve

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// propertyCell is one drawn cell of the replay property test: a config, the
// traffic it replays, and a label for the golden line.
type propertyCell struct {
	name string
	cfg  Config
	reqs []Request
}

// drawPropertyCell draws cell i's config and traffic from st. Cells cycle
// through four shapes — plain, resilient (faults and client policies),
// autoscaled and disaggregated — and cell 0 prices every batch at zero, so
// batches complete at the instant they launch.
func drawPropertyCell(st *rng.Stream, i int) propertyCell {
	routes := []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion}
	cfg := Config{
		Profile:      llm.GPT4,
		Replicas:     st.Intn(4) + 1,
		Routing:      routes[st.Intn(len(routes))],
		MaxBatch:     st.Intn(8) + 1,
		MaxWait:      time.Duration(st.Intn(2001)) * time.Millisecond,
		CacheTokens:  []int{0, 2048, 8192}[st.Intn(3)],
		CacheEntries: []int{0, 64}[st.Intn(2)],
		Identity:     []CacheIdentity{IdentityShape, IdentityContent}[st.Intn(2)],
	}
	if i == 0 {
		cfg.Profile = llm.Profile{Name: "free"}
	}
	tr := Traffic{Kind: ArrivalKinds()[st.Intn(3)], Tenants: st.Intn(13) + 4,
		Horizon: 20 * time.Minute, Rate: []float64{1.0 / 30, 1.0 / 15}[st.Intn(2)],
		Seed: uint64(st.Intn(1000))}
	prio, deadline := st.Intn(2) == 0, time.Duration(0)
	if st.Intn(3) == 0 {
		deadline = time.Duration(st.Intn(50)+10) * time.Second
	}
	shape := []string{"plain", "resilient", "autoscaled", "disaggregated"}[i%4]
	switch shape {
	case "resilient":
		if st.Intn(4) > 0 {
			deadline = time.Duration(st.Intn(25)+5) * time.Second
		}
		if st.Intn(4) > 0 {
			cfg.Faults = Faults{MTBF: time.Duration(st.Intn(240)+60) * time.Second,
				MTTR: time.Duration(st.Intn(40)+5) * time.Second, Seed: uint64(st.Intn(100))}
		}
		if st.Intn(2) == 0 {
			cfg.Faults.StragglerEvery = time.Duration(st.Intn(120)+30) * time.Second
			cfg.Faults.StragglerFor = time.Duration(st.Intn(30)+5) * time.Second
			cfg.Faults.StragglerFactor = float64(st.Intn(5) + 2)
		}
		if st.Intn(3) > 0 {
			cfg.Retry = RetryPolicy{Max: st.Intn(3) + 1, Base: time.Duration(st.Intn(1000)) * time.Millisecond,
				Factor: 2, Jitter: 0.2}
		}
		if st.Intn(2) == 0 {
			cfg.Hedge = HedgePolicy{Delay: time.Duration(st.Intn(10)+1) * time.Second}
		}
		if st.Intn(2) == 0 {
			cfg.Shed = ShedPolicy{Queue: st.Intn(24) * st.Intn(2), Wait: time.Duration(st.Intn(40)) * time.Second,
				Priority: st.Intn(3)}
		}
	case "autoscaled":
		cfg.Replicas = st.Intn(3) + 2
		cfg.Autoscale = Autoscale{Interval: time.Duration(st.Intn(20)+5) * time.Second,
			ColdStart: time.Duration(st.Intn(10)) * time.Second,
			UpUtil:    0.5, DownUtil: 0.25, Min: 1, Max: cfg.Replicas}
	case "disaggregated":
		pool := func() PoolConfig {
			return PoolConfig{Replicas: st.Intn(2) + 1, MaxBatch: st.Intn(8) + 1,
				MaxWait: time.Duration(st.Intn(2001)) * time.Millisecond}
		}
		cfg.Replicas, cfg.Prefill, cfg.Decode = 0, pool(), pool()
		cfg.Handoff = Handoff{Latency: time.Duration(st.Intn(100)) * time.Millisecond,
			TokensPerSec: float64(st.Intn(2)) * 200000}
		deadline = 0
	}
	reqs := GenerateTraffic(tr)
	for j := range reqs {
		if prio {
			reqs[j].Priority = st.Intn(3)
		}
		reqs[j].Deadline = deadline
	}
	name := fmt.Sprintf("%02d-%s/%s/r%d/b%d/prio=%t/dl=%v", i, shape, tr.Kind, cfg.Replicas, cfg.MaxBatch, prio, deadline)
	return propertyCell{name: name, cfg: cfg, reqs: reqs}
}

// TestReplayPropertyGolden draws 52 serving configs × generated traffic
// from a named stream — replicas 1–4, MaxBatch 1–8, MaxWait 0–2 s, every
// routing policy, token and entry cache budgets, priorities and deadlines,
// retry, hedge and shed policies, crash and straggler faults, autoscaled
// and disaggregated deployments — and checks the replay contract on each:
// every offered request is served, shed or timed out, an observed replay
// equals an unobserved one, and the recorded stream validates. Each cell's
// ReplayResult and stream digests are pinned to
// testdata/replay_property.golden.
func TestReplayPropertyGolden(t *testing.T) {
	st := rng.New(21).Sub("serve/test").NewStream("replay-property")
	var b strings.Builder
	for i := 0; i < 52; i++ {
		c := drawPropertyCell(st, i)
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := Replay(c.cfg, c.reqs)
		rec := obs.NewRecorder()
		if obsRes := ReplayObserved(c.cfg, c.reqs, rec); !reflect.DeepEqual(res, obsRes) {
			t.Errorf("%s: observed replay differs from the unobserved one", c.name)
		}
		s := res.Stats
		if got := s.Requests + s.ShedRequests + s.TimedOut; got != len(c.reqs) {
			t.Errorf("%s: served %d + shed %d + timed out %d = %d, offered %d",
				c.name, s.Requests, s.ShedRequests, s.TimedOut, got, len(c.reqs))
		}
		events := rec.Events()
		if err := obs.Validate(events); err != nil {
			t.Errorf("%s: recorded stream invalid: %v", c.name, err)
		}
		h := sha256.New()
		if err := obs.WriteJSONL(h, events); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%-48s reqs=%d batches=%d shed=%d timeout=%d retries=%d hedges=%d failed=%d events=%d %s %x\n",
			c.name, len(c.reqs), res.Batches, s.ShedRequests, s.TimedOut, s.Retries, s.HedgesIssued,
			s.FailedBatches, len(events), replayDigest(res), h.Sum(nil)[:12])
	}
	checkGolden(t, "replay_property.golden", b.String())
}
