// Package benchjson is the one definition of the machine-readable perf
// record schema shared by cmd/embench (which writes it via -bench-json)
// and cmd/perftrack (which appends it to the perf trajectory and checks
// regressions). Keeping the types in one place means the producer and the
// consumer cannot drift apart silently.
package benchjson

import "fmt"

// Entry is one experiment's perf record.
type Entry struct {
	Experiment string  `json:"experiment"`
	Episodes   int     `json:"episodes"`
	Seed       uint64  `json:"seed"`
	Procs      int     `json:"procs"`
	WallMS     float64 `json:"wall_ms"`
	ReportB    int     `json:"report_bytes,omitempty"`
	ReportRows int     `json:"report_lines,omitempty"`
	// Axis names the effective values of the overrides the experiment
	// reads (fig10's fleet sizes and shards; fig12's and fig14's tenants,
	// SLO and autoscale policy, plus fig12's arrivals); distinct axes are
	// distinct run configurations.
	Axis string `json:"axis,omitempty"`
	// Metrics carries experiment-specific perf numbers (fig10's admission
	// rates, fig11–fig14's simulated acceptance evidence), so the
	// trajectory records more than total wall time.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ConfigKey identifies the entry's run configuration. Wall times are only
// comparable between runs of the same configuration, so trajectory
// baselines are keyed on this, not on the experiment name alone. Axis
// (when set — fig10, fig12 and fig14) is part of the key: a reduced-axis
// CI run and a full-ladder local run are different workloads.
func (e Entry) ConfigKey() string {
	k := fmt.Sprintf("%s|ep%d|seed%d|procs%d", e.Experiment, e.Episodes, e.Seed, e.Procs)
	if e.Axis != "" {
		k += "|" + e.Axis
	}
	return k
}

// File is the top-level object written by embench -bench-json.
type File struct {
	Suite       string  `json:"suite"`
	GeneratedBy string  `json:"generated_by"`
	Entries     []Entry `json:"entries"`
	TotalWallMS float64 `json:"total_wall_ms"`
}

// Env identifies the machine a trajectory record was measured on. Wall
// times are only comparable within similar environments, so perftrack
// stamps every appended line with the host identity it measured under —
// a cross-machine trajectory then explains its own outliers.
type Env struct {
	Host       string `json:"host,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

// Record is one appended perf-trajectory line (JSONL). Env is absent on
// lines written before environment stamping existed; those still parse.
// A record carries either experiment wall times (Entries, from
// embench -bench-json) or repeated Go benchmark samples (Benches, from
// go test -bench -count=N -benchmem).
type Record struct {
	Label   string    `json:"label"`
	Env     Env       `json:"env"`
	Entries []Entry   `json:"entries,omitempty"`
	Benches []GoBench `json:"benches,omitempty"`
}
