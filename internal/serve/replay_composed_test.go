package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/rng"
	"embench/internal/serve/obs"
)

// canonicalDigest hashes an event stream as a set: Seq zeroed, each event
// encoded as one JSONL line, lines sorted. Two loops that emit the same
// events in a different order share it.
func canonicalDigest(t *testing.T, events []obs.Event) string {
	t.Helper()
	lines := make([]string, len(events))
	for i, ev := range events {
		ev.Seq = 0
		var b bytes.Buffer
		if err := obs.WriteJSONL(&b, []obs.Event{ev}); err != nil {
			t.Fatal(err)
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestReplayCanonicalStreams pins the canonical-order stream digest of every
// disaggregated cell of the property and priority goldens to
// testdata/replay_canonical.golden. The raw stream digests in those goldens
// pin emission order too; this one pins only which events occur.
func TestReplayCanonicalStreams(t *testing.T) {
	var cells []propertyCell
	st := rng.New(21).Sub("serve/test").NewStream("replay-property")
	for i := 0; i < 52; i++ {
		cells = append(cells, drawPropertyCell(st, i))
	}
	cells = append(cells, priorityCells()...)
	var b strings.Builder
	for _, c := range cells {
		if !c.cfg.Disaggregated() {
			continue
		}
		rec := obs.NewRecorder()
		ReplayObserved(c.cfg, c.reqs, rec)
		events := rec.Events()
		fmt.Fprintf(&b, "%-48s events=%d %s\n", c.name, len(events), canonicalDigest(t, events))
	}
	checkGolden(t, "replay_canonical.golden", b.String())
}

// TestDisaggDeadlineAccounting replays bursty traffic with a 5 s per-attempt
// deadline on a 1+2-replica disaggregated deployment. Every request must
// resolve once, and the Completions' outcomes must agree with Stats.
func TestDisaggDeadlineAccounting(t *testing.T) {
	reqs := GenerateTraffic(Traffic{Kind: ArriveBursty, Tenants: 32,
		Horizon: 30 * time.Minute, Rate: 1.0 / 20, Seed: 1})
	for i := range reqs {
		reqs[i].Deadline = 5 * time.Second
	}
	cfg := Config{
		Profile: llm.GPT4,
		Prefill: PoolConfig{Replicas: 1, MaxBatch: 4, MaxWait: 500 * time.Millisecond},
		Decode:  PoolConfig{Replicas: 2, MaxBatch: 8, MaxWait: 500 * time.Millisecond},
		Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000},
	}
	res := Replay(cfg, reqs)
	checkOutcomes(t, "deadline", res, len(reqs))
	if res.Stats.TimedOut == 0 {
		t.Errorf("no request timed out under a 5 s deadline; the overload this test needs is gone")
	}
}

// checkOutcomes asserts the accounting law of a replay: every offered
// request is served, shed or timed out, and the Completions' outcome labels
// agree with the Stats counters.
func checkOutcomes(t *testing.T, name string, res ReplayResult, offered int) {
	t.Helper()
	s := res.Stats
	if got := s.Requests + s.ShedRequests + s.TimedOut; got != offered {
		t.Errorf("%s: served %d + shed %d + timed out %d = %d, offered %d",
			name, s.Requests, s.ShedRequests, s.TimedOut, got, offered)
	}
	count := map[Outcome]int{}
	for _, c := range res.Completions {
		count[c.Outcome]++
	}
	if count[OutcomeServed] != s.Requests || count[OutcomeShed] != s.ShedRequests || count[OutcomeTimedOut] != s.TimedOut {
		t.Errorf("%s: completions served/shed/timed out %d/%d/%d, stats %d/%d/%d", name,
			count[OutcomeServed], count[OutcomeShed], count[OutcomeTimedOut],
			s.Requests, s.ShedRequests, s.TimedOut)
	}
}

// drawComposedCell draws one disaggregated cell with the policies that act
// per pool (faults, autoscaling) and on the parent (deadlines, retry,
// hedge, shed) composed on top.
func drawComposedCell(st *rng.Stream, i int) propertyCell {
	routes := []RoutingPolicy{RouteLeastLoaded, RouteCacheAffinity, RouteShortestCompletion}
	pool := func() PoolConfig {
		return PoolConfig{Replicas: st.Intn(3) + 1, MaxBatch: st.Intn(8) + 1,
			MaxWait: time.Duration(st.Intn(2001)) * time.Millisecond}
	}
	cfg := Config{
		Profile:     llm.GPT4,
		Routing:     routes[st.Intn(len(routes))],
		CacheTokens: []int{0, 2048, 8192}[st.Intn(3)],
		Identity:    []CacheIdentity{IdentityShape, IdentityContent}[st.Intn(2)],
		Prefill:     pool(),
		Decode:      pool(),
		Handoff: Handoff{Latency: time.Duration(st.Intn(100)) * time.Millisecond,
			TokensPerSec: float64(st.Intn(2)) * 200000},
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
	if st.Intn(2) == 0 {
		cfg.Autoscale = Autoscale{Interval: time.Duration(st.Intn(20)+5) * time.Second,
			ColdStart: time.Duration(st.Intn(10)) * time.Second,
			UpUtil:    0.5, DownUtil: 0.25, Min: 1, Max: st.Intn(4)}
	}
	deadline := time.Duration(0)
	if st.Intn(4) > 0 {
		deadline = time.Duration(st.Intn(25)+5) * time.Second
	}
	tr := Traffic{Kind: ArrivalKinds()[st.Intn(3)], Tenants: st.Intn(13) + 4,
		Horizon: 20 * time.Minute, Rate: []float64{1.0 / 30, 1.0 / 15}[st.Intn(2)],
		Seed: uint64(st.Intn(1000))}
	prio := st.Intn(2) == 0
	reqs := GenerateTraffic(tr)
	for j := range reqs {
		if prio {
			reqs[j].Priority = st.Intn(3)
		}
		reqs[j].Deadline = deadline
	}
	name := fmt.Sprintf("%02d-composed/%s/p%d+d%d/as=%t/prio=%t/dl=%v", i, tr.Kind,
		cfg.Prefill.Replicas, cfg.Decode.Replicas, cfg.Autoscale.enabled(), prio, deadline)
	return propertyCell{name: name, cfg: cfg, reqs: reqs}
}

// TestReplayComposedPools draws 16 disaggregated deployments with faults,
// autoscaling, deadlines, retry, hedge and shed composed, and checks the
// replay contract on each: the accounting law, an observed replay equal to
// an unobserved one, a valid recorded stream, and byte-identical reruns.
// Each cell's digests are pinned to testdata/replay_composed.golden.
func TestReplayComposedPools(t *testing.T) {
	st := rng.New(22).Sub("serve/test").NewStream("replay-composed")
	var b strings.Builder
	for i := 0; i < 16; i++ {
		c := drawComposedCell(st, i)
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := Replay(c.cfg, c.reqs)
		checkOutcomes(t, c.name, res, len(c.reqs))
		rec := obs.NewRecorder()
		if obsRes := ReplayObserved(c.cfg, c.reqs, rec); !reflect.DeepEqual(res, obsRes) {
			t.Errorf("%s: observed replay differs from the unobserved one", c.name)
		}
		events := rec.Events()
		if err := obs.Validate(events); err != nil {
			t.Errorf("%s: recorded stream invalid: %v", c.name, err)
		}
		rerun := obs.NewRecorder()
		ReplayObserved(c.cfg, c.reqs, rerun)
		var x, y bytes.Buffer
		if err := obs.WriteJSONL(&x, events); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(&y, rerun.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) || replayDigest(res) != replayDigest(Replay(c.cfg, c.reqs)) {
			t.Errorf("%s: rerun is not byte-identical", c.name)
		}
		s, sum := res.Stats, sha256.Sum256(x.Bytes())
		fmt.Fprintf(&b, "%-48s reqs=%d batches=%d shed=%d timeout=%d retries=%d hedges=%d failed=%d ups=%d events=%d %s %x\n",
			c.name, len(c.reqs), res.Batches, s.ShedRequests, s.TimedOut, s.Retries, s.HedgesIssued,
			s.FailedBatches, s.ScaleUps, len(events), replayDigest(res), sum[:12])
	}
	checkGolden(t, "replay_composed.golden", b.String())
}
