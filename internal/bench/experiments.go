package bench

import (
	"fmt"
	"strings"

	"embench/internal/systems"
)

// Result is one experiment run's output.
type Result struct {
	// Name is the experiment's canonical name in the table.
	Name   string
	Report string
	// Metrics are the machine-readable numbers the perf trajectory
	// records; nil for experiments that report only rendered tables.
	Metrics map[string]float64
	// Axis names the effective values of every override the experiment
	// reads, defaults filled in, so runs of one configuration share a
	// trajectory key however it was spelled; "" when it reads none.
	Axis string
}

// Experiment is one runnable table or figure.
type Experiment struct {
	Name string
	run  func(Config) Result
}

// Experiments is the one list of runnable experiments: a row per paper
// table and figure, plus the optimization ablations and the calibration
// report. Adding an experiment is adding a row here.
var Experiments = []Experiment{
	{"table1", func(Config) Result { return Result{Report: systems.RenderTaxonomy()} }},
	{"table2", func(Config) Result { return Result{Report: systems.RenderSuite()} }},
	{"fig2", func(c Config) Result { return Result{Report: RenderFig2(Fig2(c))} }},
	{"fig3", func(c Config) Result { return Result{Report: RenderFig3(Fig3(c))} }},
	{"fig4", func(c Config) Result { return Result{Report: RenderFig4(Fig4(c))} }},
	{"fig5", func(c Config) Result { return Result{Report: RenderFig5(Fig5(c))} }},
	{"fig6", func(c Config) Result { return Result{Report: RenderFig6(Fig6(c))} }},
	{"fig7", func(c Config) Result { return Result{Report: RenderFig7(Fig7(c))} }},
	{"fig8", func(c Config) Result { return Result{Report: RenderFig8(Fig8(c))} }},
	{"fig9", func(c Config) Result { return Result{Report: RenderFig9(Fig9(c))} }},
	{"fig10", func(c Config) Result {
		rep := Fig10(c)
		return Result{Report: RenderFig10(rep), Metrics: Fig10Metrics(rep),
			Axis: fmt.Sprintf("sizes=%s;shards=%s", join(c.fleetSizes()), join(c.fleetShards()))}
	}},
	{"fig11", func(c Config) Result {
		rep := Fig11(c)
		return Result{Report: RenderFig11(rep), Metrics: Fig11Metrics(rep)}
	}},
	{"fig12", func(c Config) Result {
		rep := Fig12(c)
		return Result{Report: RenderFig12(rep), Metrics: Fig12Metrics(rep),
			Axis: "arrivals=" + join(c.arrivals()) + ";" + c.servingAxis(c.tenants(Fig12Tenants))}
	}},
	{"fig13", func(c Config) Result {
		rep := Fig13(c)
		return Result{Report: RenderFig13(rep), Metrics: Fig13Metrics(rep)}
	}},
	{"fig14", func(c Config) Result {
		rep := Fig14(c)
		return Result{Report: RenderFig14(rep), Metrics: Fig14Metrics(rep),
			Axis: c.servingAxis([]int{rep.Tenants})}
	}},
	{"opts", func(c Config) Result { return Result{Report: RenderOptimizations(Optimizations(c), Batching())} }},
	{"calibrate", func(c Config) Result { return Result{Report: CalibrationReport(Fig2(c))} }},
}

// Lookup returns the run of the experiment called name, ignoring case; its
// results carry the table's name.
func Lookup(name string) (run func(Config) Result, ok bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.Name, name) {
			return func(c Config) Result {
				res := e.run(c)
				res.Name = e.Name
				return res
			}, true
		}
	}
	return nil, false
}

// servingAxis names the tenant counts, SLO and autoscale policy a front-door
// replay sweep runs with. The policy is "default" when it is fig12's own,
// else every parsed field in a fixed order.
func (c Config) servingAxis(tenants []int) string {
	as := "default"
	if a := c.autoscale(); a != fig12Autoscale {
		as = fmt.Sprintf("interval=%s,cold=%s,up=%g,down=%g,min=%d,max=%d",
			a.Interval, a.ColdStart, a.UpUtil, a.DownUtil, a.Min, a.Max)
	}
	return fmt.Sprintf("tenants=%s;slo=%s;autoscale=%s", join(tenants), c.slo(), as)
}

// join renders values as a comma list.
func join[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
