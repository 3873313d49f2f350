package serve

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"embench/internal/llm"
)

// TestParseAutoscale pins the CLI surface: accepted spellings and the
// zero-value-on-error contract, for autoscale and then, through one table
// (spec_test.go), for every serving spec.
func TestParseAutoscale(t *testing.T) {
	for _, s := range []string{"", "off"} {
		a, err := ParseAutoscale(s)
		if err != nil || a.enabled() {
			t.Fatalf("ParseAutoscale(%q) = %+v, %v; want disabled, nil", s, a, err)
		}
	}
	a, err := ParseAutoscale("on")
	if err != nil || !a.enabled() || a.Interval != 30*time.Second || a.ColdStart != 15*time.Second {
		t.Fatalf("ParseAutoscale(on) = %+v, %v", a, err)
	}
	a, err = ParseAutoscale("interval=10s,cold=5s,up=0.8,down=0.2,min=2,max=6")
	if err != nil {
		t.Fatalf("explicit spec: %v", err)
	}
	want := Autoscale{Interval: 10 * time.Second, ColdStart: 5 * time.Second,
		UpUtil: 0.8, DownUtil: 0.2, Min: 2, Max: 6}
	if a != want {
		t.Fatalf("explicit spec = %+v, want %+v", a, want)
	}
	for _, bad := range []string{
		"interval=abc", "up=2", "down=-1", "min=0", "bogus=1", "up", "cold=5s", // no interval
	} {
		a, err := ParseAutoscale(bad)
		if err == nil {
			t.Fatalf("ParseAutoscale(%q) accepted", bad)
		}
		if a != (Autoscale{}) {
			t.Fatalf("ParseAutoscale(%q) returned usable fallback %+v", bad, a)
		}
		if !strings.Contains(err.Error(), "autoscale") {
			t.Fatalf("ParseAutoscale(%q) error lacks context: %v", bad, err)
		}
	}
	for _, k := range specKinds {
		t.Run(k.name, func(t *testing.T) { checkSpecKind(t, k) })
	}
}

// TestAutoscaleDisabledDifferential is the satellite differential: a zero
// Autoscale must leave Replay byte-identical to a config that never heard
// of autoscaling, and an enabled-but-clamped policy (Min == Max, no cold
// start) must reproduce the fixed-replica schedule exactly — the
// bookkeeping may add its own counters, but completions, batches and every
// shared statistic must not move.
func TestAutoscaleDisabledDifferential(t *testing.T) {
	reqs := SharedPreambleTrace(8, 8, 3)
	base := Config{Profile: noJitter, Replicas: 4, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 128, CacheTokens: 4096}
	withZero := base
	withZero.Autoscale = Autoscale{} // explicit zero — the disabled spelling
	a, b := Replay(base, reqs), Replay(withZero, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero Autoscale perturbed Replay output")
	}

	clamped := base
	clamped.Autoscale = Autoscale{Interval: 30 * time.Second, Min: 4, Max: 4}
	c := Replay(clamped, reqs)
	if !reflect.DeepEqual(a.Completions, c.Completions) {
		t.Fatal("clamped autoscaler (Min == Max == Replicas) changed the schedule")
	}
	if a.Batches != c.Batches || a.Makespan != c.Makespan {
		t.Fatalf("clamped autoscaler changed batches/makespan: %d/%v vs %d/%v",
			a.Batches, a.Makespan, c.Batches, c.Makespan)
	}
	if c.Stats.ScaleUps != 0 || c.Stats.ScaleDowns != 0 {
		t.Fatalf("clamped autoscaler scaled: %d up, %d down", c.Stats.ScaleUps, c.Stats.ScaleDowns)
	}
	if c.Stats.ReplicaTime != 4*c.Makespan {
		t.Fatalf("clamped ReplicaTime = %v, want %v", c.Stats.ReplicaTime, 4*c.Makespan)
	}
	if a.Stats.ReplicaTime != 0 {
		t.Fatalf("disabled path reports ReplicaTime %v, want 0", a.Stats.ReplicaTime)
	}
}

// burstTrace builds an idle-burst-idle trace: quiet singles, then a dense
// all-tenants burst, then quiet again — the shape that forces both a
// scale-up and later scale-downs.
func burstTrace() []Request {
	var reqs []Request
	add := func(at time.Duration, agent string) {
		reqs = append(reqs, Request{
			Agent: agent, Arrival: at,
			Prompt: sharedPrompt(agent, 60), OutTokens: 40,
		})
	}
	for i := 0; i < 4; i++ { // light warm-up: one request per 30s
		add(time.Duration(i)*30*time.Second, "quiet")
	}
	for i := 0; i < 40; i++ { // burst: 40 requests across 60s
		add(2*time.Minute+time.Duration(i)*1500*time.Millisecond, "burst")
	}
	for i := 0; i < 4; i++ { // cool-down stragglers
		add(8*time.Minute+time.Duration(i)*time.Minute, "quiet")
	}
	return reqs
}

// TestAutoscaleScalesUpAndDown drives the burst trace through an
// autoscaled replay and checks the policy actually moves in both
// directions, prices scale-down cache loss, and stays deterministic.
func TestAutoscaleScalesUpAndDown(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 6, MaxBatch: 2,
		MaxWait: 500 * time.Millisecond, CacheEntries: 128, CacheTokens: 2048,
		Autoscale: Autoscale{Interval: 15 * time.Second, ColdStart: 5 * time.Second,
			UpUtil: 0.6, DownUtil: 0.3, Min: 1},
	}
	res := Replay(cfg, burstTrace())
	if res.Stats.ScaleUps == 0 {
		t.Fatal("burst never triggered a scale-up")
	}
	if res.Stats.ScaleDowns == 0 {
		t.Fatal("idle tail never triggered a scale-down")
	}
	if res.Stats.EvictedTokens == 0 {
		t.Fatal("scale-down flushed no warm tokens (cache-loss pricing missing)")
	}
	if res.Stats.ReplicaTime <= 0 || res.Stats.ReplicaTime >= 6*res.Makespan {
		t.Fatalf("ReplicaTime = %v, want in (0, %v)", res.Stats.ReplicaTime, 6*res.Makespan)
	}
	if again := Replay(cfg, burstTrace()); !reflect.DeepEqual(res, again) {
		t.Fatal("autoscaled replay is not deterministic")
	}
}

// TestAutoscaleFleetDeadlockFree is the -race deadlock test: many episode
// goroutines hammer a shared autoscaled fleet (scale-downs happening while
// other episodes' requests are parked in the merge) and every request must
// complete.
func TestAutoscaleFleetDeadlockFree(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 4, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64,
		Autoscale: Autoscale{Interval: 10 * time.Second, ColdStart: 2 * time.Second,
			UpUtil: 0.5, DownUtil: 0.4, Min: 1},
	}
	const episodes, calls = 8, 30
	f := NewFleet(cfg, episodes)
	var wg sync.WaitGroup
	for i := 0; i < episodes; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := f.Client(id)
			defer c.Finish()
			at := time.Duration(id) * 3 * time.Second
			for n := 0; n < calls; n++ {
				s := c.Serve(llm.Call{
					Agent: "a", Arrival: at,
					Prompt: sharedPrompt("a", 40+n), OutTokens: 30,
				})
				// Idle gaps between calls give the evaluation clock room to
				// scale down while other episodes still have queued work.
				at += s.Latency + time.Duration(1+n%5)*7*time.Second
			}
		}(i)
	}
	wg.Wait()
	if got := f.Stats().Requests; got != episodes*calls {
		t.Fatalf("served %d requests, want %d", got, episodes*calls)
	}
}

// TestShardedFleetAutoscales checks the policy rides Config into every
// shard and the shard rollup merges the new fields.
func TestShardedFleetAutoscales(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 2, CacheEntries: 64,
		Autoscale: Autoscale{Interval: 20 * time.Second, Min: 1}}
	sf := NewShardedFleet(cfg, 4, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := sf.Client(id)
			defer c.Finish()
			at := time.Duration(id) * 2 * time.Second
			for n := 0; n < 10; n++ {
				s := c.Serve(llm.Call{Agent: "a", Arrival: at,
					Prompt: sharedPrompt("a", 30), OutTokens: 20})
				at += s.Latency + 25*time.Second
			}
		}(i)
	}
	wg.Wait()
	if got := sf.Stats().Requests; got != 40 {
		t.Fatalf("served %d requests, want 40", got)
	}
	if sf.Stats().QueueWaitHist.Total() == 0 {
		t.Fatal("shard rollup dropped the queue-wait histogram")
	}
}
