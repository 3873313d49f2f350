package bench

import (
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"embench/internal/serve"
)

// TestExperimentGoldens pins every experiment's rendered report at one
// small configuration. fig10 is left out: its wall-time columns vary run to
// run, and fig10_seed.golden pins its deterministic ones. fig3–fig6 have no
// parity test of their own, so they also run on two workers against the
// same golden.
func TestExperimentGoldens(t *testing.T) {
	parity := map[string]bool{"fig3": true, "fig4": true, "fig5": true, "fig6": true}
	for _, e := range Experiments {
		if e.Name == "fig10" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			golden := filepath.Join("experiments", e.Name+".golden")
			checkGolden(t, golden, baseRun(e).Report)
			if parity[e.Name] {
				checkGolden(t, golden, e.run(Config{Episodes: 1, Seed: 1, Parallelism: 2}).Report)
			}
		})
	}
}

// overrides sets each of Config's six overrides to a non-default value.
var overrides = []struct {
	name string
	set  func(*Config)
}{
	{"FleetSizes", func(c *Config) { c.FleetSizes = []int{16} }},
	{"FleetShards", func(c *Config) { c.FleetShards = []int{2} }},
	{"Arrivals", func(c *Config) { c.Arrivals = []serve.ArrivalKind{serve.ArriveBursty} }},
	{"Tenants", func(c *Config) { c.Tenants = []int{4} }},
	{"SLO", func(c *Config) { c.SLO = 45 * time.Second }},
	{"Autoscale", func(c *Config) { c.Autoscale = serve.Autoscale{Interval: 20 * time.Second, Min: 1} }},
}

// axisBase is the configuration the goldens and the override tests start
// from: defaults, but fig10 on a reduced axis (its default ladder takes
// seconds).
func axisBase(name string) Config {
	c := Config{Episodes: 1, Seed: 1, Parallelism: 1}
	if name == "fig10" {
		c.FleetSizes, c.FleetShards = []int{8}, []int{1}
	}
	return c
}

// baseRuns memoizes each experiment's run at axisBase, which the golden and
// override tests share.
var baseRuns sync.Map

func baseRun(e Experiment) Result {
	if r, ok := baseRuns.Load(e.Name); ok {
		return r.(Result)
	}
	r := e.run(axisBase(e.Name))
	baseRuns.Store(e.Name, r)
	return r
}

// TestExperimentAxisNamesOverrides: each override an experiment reads
// changes its perf-record axis, so runs of different configurations never
// share a trajectory baseline.
func TestExperimentAxisNamesOverrides(t *testing.T) {
	reads := map[string][]string{
		"fig10": {"FleetSizes", "FleetShards"},
		"fig12": {"Arrivals", "Tenants", "SLO", "Autoscale"},
		"fig14": {"Tenants", "SLO", "Autoscale"},
	}
	for _, e := range Experiments {
		read, ok := reads[e.Name]
		if !ok {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			base := baseRun(e).Axis
			for _, o := range overrides {
				if !slices.Contains(read, o.name) {
					continue
				}
				cfg := axisBase(e.Name)
				o.set(&cfg)
				if got := e.run(cfg).Axis; got == base {
					t.Errorf("setting %s leaves the axis at %q", o.name, got)
				}
			}
		})
	}
}

// TestExperimentOverridesReachAxis: for every experiment, setting all six
// overrides either leaves the report and metrics unchanged or changes the
// axis — an override that moves the results must reach the record's key.
func TestExperimentOverridesReachAxis(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			a := baseRun(e)
			cfg := axisBase(e.Name)
			for _, o := range overrides {
				o.set(&cfg)
			}
			b := e.run(cfg)
			if a.Axis == b.Axis && (a.Report != b.Report || !reflect.DeepEqual(a.Metrics, b.Metrics)) {
				t.Errorf("overrides change %s's results but not its axis %q", e.Name, a.Axis)
			}
		})
	}
}
