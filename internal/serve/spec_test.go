package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/serve/obs"
)

// specKind is one serving spec in the shared grammar: its parser, its
// "on" defaults, the example docs/EXPERIMENTS.md gives, and spellings it
// must reject.
type specKind struct {
	name    string
	parse   func(string) (any, error)
	on      any // nil: "on" is rejected
	example string
	want    any
	rejects []string
}

func anySpec[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) { v, err := parse(s); return v, err }
}

var specKinds = []specKind{
	{
		name: "autoscale", parse: anySpec(ParseAutoscale),
		on:      Autoscale{Interval: 30 * time.Second, ColdStart: 15 * time.Second},
		example: "interval=15s,cold=10s,up=0.5,down=0.25,min=2,max=8",
		want: Autoscale{Interval: 15 * time.Second, ColdStart: 10 * time.Second,
			UpUtil: 0.5, DownUtil: 0.25, Min: 2, Max: 8},
		rejects: []string{"interval", "every=10s", "interval=abc", "interval=10s,min=x",
			"interval=10s,up=2", "interval=10s,up=NaN", "interval=10s,down=Inf",
			"interval=10s,up=-Inf", "interval=10001h", "interval=2562048h",
			"interval=10s,cold=10001h", "interval=1ms", "cold=5s"},
	},
	{
		name: "faults", parse: anySpec(ParseFaults),
		on:      Faults{MTBF: 5 * time.Minute, MTTR: 30 * time.Second},
		example: "mtbf=3m,mttr=30s,straggle=2m,for=20s,slow=4,seed=1",
		want: Faults{MTBF: 3 * time.Minute, MTTR: 30 * time.Second, StragglerEvery: 2 * time.Minute,
			StragglerFor: 20 * time.Second, StragglerFactor: 4, Seed: 1},
		rejects: []string{"mtbf", "x=1", "mtbf=fast", "mtbf=5m,seed=-1", "straggle=1m,slow=0.5",
			"straggle=1m,slow=NaN", "straggle=1m,slow=+Inf", "straggle=1m,slow=1e300",
			"straggle=1m,slow=1001", "mtbf=5m,mttr=10001h", "mtbf=100ms", "straggle=1ns", "mttr=30s",
			"mtbf=1s,mttr=10000h,straggle=1s,for=1ns"},
	},
	{
		name: "retry", parse: anySpec(ParseRetry),
		on:      RetryPolicy{Max: 2, Jitter: 0.2},
		example: "max=3,base=250ms,factor=1.5,jitter=0.1",
		want:    RetryPolicy{Max: 3, Base: 250 * time.Millisecond, Factor: 1.5, Jitter: 0.1},
		rejects: []string{"max", "tries=2", "max=many", "max=0", "max=2,factor=0",
			"max=2,factor=NaN", "max=2,factor=Inf", "max=2,jitter=NaN", "max=2,jitter=+Inf",
			"max=2,base=10001h", "base=1s"},
	},
	{
		name: "hedge", parse: anySpec(ParseHedge),
		on:      HedgePolicy{Delay: 2 * time.Second},
		example: "delay=1500ms",
		want:    HedgePolicy{Delay: 1500 * time.Millisecond},
		rejects: []string{"delay", "after=2s", "delay=soon", "delay=0s", "delay=NaN",
			"delay=Inf", "delay=10001h", ","},
	},
	{
		name: "shed", parse: anySpec(ParseShed),
		on:      ShedPolicy{Queue: 32},
		example: "queue=16,wait=5s,prio=1",
		want:    ShedPolicy{Queue: 16, Wait: 5 * time.Second, Priority: 1},
		rejects: []string{"queue", "depth=4", "queue=deep", "queue=0", "queue=4,prio=1.5",
			"wait=NaN", "wait=Inf", "wait=10001h", "prio=2"},
	},
	{
		name: "handoff", parse: anySpec(ParseHandoff),
		example: "lat=40ms,rate=200000",
		want:    Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000},
		rejects: []string{"on", "lat", "bw=9", "rate=abc", "rate=-5", "lat=-1s", "rate=NaN",
			"rate=Inf", "rate=1e-300", "rate=0.5", "lat=10001h"},
	},
}

// checkSpecKind pins one kind's grammar: "" and "off" are the zero value,
// "on" its defaults, the documented example the exact struct (also with
// whitespace around every token), and every reject the zero value with an
// error naming the kind.
func checkSpecKind(t *testing.T, k specKind) {
	t.Helper()
	zero := reflect.Zero(reflect.TypeOf(k.want)).Interface()
	accept := map[string]any{"": zero, "off": zero, " off ": zero, k.example: k.want,
		" " + strings.NewReplacer(",", " , ", "=", " = ").Replace(k.example) + " ": k.want}
	if k.on != nil {
		accept["on"], accept[" on "] = k.on, k.on
	}
	for s, want := range accept {
		if v, err := k.parse(s); err != nil || v != want {
			t.Errorf("parse %s %q = %+v, %v; want %+v", k.name, s, v, err, want)
		}
	}
	for _, s := range k.rejects {
		v, err := k.parse(s)
		if err == nil {
			t.Errorf("parse %s %q accepted as %+v", k.name, s, v)
			continue
		}
		if v != zero {
			t.Errorf("parse %s %q returned usable fallback %+v", k.name, s, v)
		}
		if !strings.Contains(err.Error(), k.name) {
			t.Errorf("parse %s %q error does not name the kind: %v", k.name, s, err)
		}
	}
}

// FuzzParseSpec feeds arbitrary specs to every spec parser (the kind byte
// picks one). An error must return the zero value. A success must hold
// only finite numbers, pass Config.Validate in a config that can hold it,
// and replay 20 generated requests to termination with a valid event
// stream and ordered served times.
func FuzzParseSpec(f *testing.F) {
	for i, k := range specKinds {
		for _, s := range []string{"", "off", "on", k.example} {
			f.Add(byte(i), s)
		}
		for _, s := range k.rejects {
			f.Add(byte(i), s)
		}
	}
	reqs := GenerateTraffic(Traffic{Seed: 1})[:20]
	f.Fuzz(func(t *testing.T, kind byte, spec string) {
		k := specKinds[int(kind)%len(specKinds)]
		v, err := k.parse(spec)
		if err != nil {
			if !reflect.ValueOf(v).IsZero() {
				t.Fatalf("parse %s %q: error %v with usable fallback %+v", k.name, spec, err, v)
			}
			return
		}
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if x := rv.Field(i); x.Kind() == reflect.Float64 && (math.IsNaN(x.Float()) || math.IsInf(x.Float(), 0)) {
				t.Fatalf("parse %s %q accepted non-finite %s: %+v", k.name, spec, rv.Type().Field(i).Name, v)
			}
		}
		cfg, deadline := specConfig(v)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("parse %s %q = %+v, which Validate rejects: %v", k.name, spec, v, err)
		}
		in := append([]Request(nil), reqs...)
		for i := range in {
			in[i].Deadline = deadline
		}
		rec := obs.NewRecorder()
		res := ReplayObserved(cfg, in, rec)
		for i, c := range res.Completions {
			if c.Outcome == OutcomeServed && (c.Start < c.Arrival || c.Done < c.Start) {
				t.Fatalf("parse %s %q: request %d served out of order: %+v", k.name, spec, i, c)
			}
		}
		if err := obs.Validate(rec.Events()); err != nil {
			t.Fatalf("parse %s %q: replayed stream invalid: %v", k.name, spec, err)
		}
	})
}

// specConfig builds a config that can hold a parsed spec value, plus the
// request deadline its replay uses. Service times are milliseconds, so a
// slowed batch still fits between crashes one second apart; the client
// policies get one slow replica and a short deadline, so attempts queue,
// time out and retry.
func specConfig(v any) (Config, time.Duration) {
	fast := llm.Profile{Name: "fuzz", Overhead: time.Millisecond, PrefillRate: 1e7, DecodeRate: 1e6, ContextWindow: 8192}
	cfg := Config{Profile: fast, Replicas: 2, MaxBatch: 4, MaxWait: 100 * time.Millisecond, CacheTokens: 8192}
	slow := Config{Profile: llm.Profile{Name: "fuzz-slow", FixedLatency: 30 * time.Second}, Replicas: 1}
	switch v := v.(type) {
	case Autoscale:
		cfg.Replicas, cfg.Autoscale = 4, v
	case Faults:
		cfg.Faults = v
	case Handoff:
		cfg.Replicas, cfg.Handoff = 0, v
		cfg.Prefill = PoolConfig{Replicas: 1, MaxBatch: 4}
		cfg.Decode = PoolConfig{Replicas: 1, MaxBatch: 4}
	case RetryPolicy:
		slow.Retry = v
		return slow, time.Second
	case HedgePolicy:
		slow.Hedge = v
		return slow, time.Second
	case ShedPolicy:
		slow.Shed = v
		return slow, time.Second
	}
	return cfg, 0
}
