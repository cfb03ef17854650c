package experiments

import (
	"fmt"
	"sort"
	"time"
)

// Scale selects experiment sizing: Full mirrors the paper's parameters;
// Quick shrinks each scenario so the whole suite finishes in seconds
// (benchmarks and CI use Quick); Stress grows the solver experiments to
// ~100k entities / 5k buckets to exercise the fast path at scale.
type Scale int

// Experiment scales.
const (
	ScaleQuick Scale = iota
	ScaleFull
	ScaleStress
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleFull:
		return "full"
	case ScaleStress:
		return "stress"
	}
	return "quick"
}

// faultSpec, when non-empty, overrides the "faults" experiment's timeline.
// smbench sets it from the -faults flag.
var faultSpec string

// SetFaultSpec installs the scenario DSL text the "faults" experiment runs
// (empty restores the built-in compound timeline).
func SetFaultSpec(spec string) { faultSpec = spec }

// tortureOverride, when non-nil, reshapes the "torture" experiment's sweep.
// smbench sets it from the -torture-* flags.
var tortureOverride func(*TortureParams)

// SetTortureOverride installs a mutator applied to the torture params after
// scale selection (nil to clear).
func SetTortureOverride(fn func(*TortureParams)) { tortureOverride = fn }

// simScaleOverride, when non-nil, reshapes the "simscale" experiment's point
// sweep. smbench sets it from the -sim-smoke flag.
var simScaleOverride func(*SimScaleParams)

// SetSimScaleOverride installs a mutator applied to the simscale params after
// scale selection (nil to clear).
func SetSimScaleOverride(fn func(*SimScaleParams)) { simScaleOverride = fn }

// runner builds one experiment report.
type runner struct {
	id    string
	title string
	run   func(Scale) *Report
}

var registry = []runner{
	{"fig1", "planned vs unplanned container stops", func(Scale) *Report {
		return Fig01(DefaultDemographicsParams())
	}},
	{"fig2", "SM adoption growth", func(Scale) *Report { return Fig02() }},
	{"fig4", "sharding-scheme breakdown", func(Scale) *Report { return Fig04(DefaultDemographicsParams()) }},
	{"fig5", "regional vs geo-distributed", func(Scale) *Report { return Fig05(DefaultDemographicsParams()) }},
	{"fig6", "replication strategies", func(Scale) *Report { return Fig06(DefaultDemographicsParams()) }},
	{"fig7", "load-balancing policies", func(Scale) *Report { return Fig07(DefaultDemographicsParams()) }},
	{"fig8", "drain policies", func(Scale) *Report { return Fig08(DefaultDemographicsParams()) }},
	{"fig9", "storage machines", func(Scale) *Report { return Fig09(DefaultDemographicsParams()) }},
	{"fig15", "scale of SM applications", func(Scale) *Report { return Fig15(DefaultDemographicsParams()) }},
	{"fig16", "scale of mini-SMs", func(Scale) *Report { return Fig16(DefaultDemographicsParams()) }},
	{"fig17", "availability during upgrades", func(s Scale) *Report {
		p := DefaultAvailabilityParams()
		if s == ScaleQuick {
			p.Servers, p.Shards, p.RequestRate = 20, 1000, 30
		}
		return Fig17(p)
	}},
	{"fig18", "production availability trace", func(s Scale) *Report {
		p := DefaultProductionTraceParams()
		if s == ScaleQuick {
			p.Servers, p.Shards, p.Days, p.BaseRate = 20, 600, 1, 5
		}
		return Fig18(p)
	}},
	{"fig19", "geo-distributed failover", func(s Scale) *Report {
		p := DefaultGeoFailoverParams()
		if s == ScaleQuick {
			p.Shards, p.ECShards, p.ServersPerRegion, p.RequestRate = 300, 120, 10, 30
		}
		return Fig19(p)
	}},
	{"fig20", "AppShards follow DBShards", func(s Scale) *Report {
		p := DefaultDBShardParams()
		if s == ScaleQuick {
			p.Shards, p.BatchSize, p.ServersPerRegion = 200, 50, 6
		}
		return Fig20(p)
	}},
	{"fig21", "allocator scalability", func(s Scale) *Report {
		p := DefaultSolverScaleParams()
		switch s {
		case ScaleQuick:
			p.Scales = [][2]int{{200, 15000}, {600, 45000}, {1000, 75000}}
		case ScaleStress:
			p.Scales = [][2]int{{1000, 20000}, {2500, 50000}, {5000, 100000}}
		}
		return Fig21(p)
	}},
	{"fig22", "solver optimization ablation", func(s Scale) *Report {
		p := DefaultSolverAblationParams()
		switch s {
		case ScaleQuick:
			p.Servers, p.Shards, p.TimeLimit = 400, 30000, 10*time.Second
		case ScaleStress:
			p.Servers, p.Shards = 5000, 100000
		}
		return Fig22(p)
	}},
	{"fig23", "continuous load balancing", func(s Scale) *Report {
		p := DefaultContinuousLBParams()
		if s == ScaleQuick {
			p.Servers, p.Shards, p.Days = 40, 1200, 1
		}
		return Fig23(p)
	}},
	{"faults", "compound fault injection and recovery", func(s Scale) *Report {
		p := DefaultCompoundFaultParams()
		if s == ScaleQuick {
			p.Shards, p.ServersPerRegion, p.RequestRate = 150, 6, 15
		}
		if faultSpec != "" {
			p.Spec = faultSpec
		}
		return CompoundFaults(p)
	}},
	{"torture", "randomized migration torture under runtime audit", func(s Scale) *Report {
		p := DefaultTortureParams()
		if s == ScaleQuick {
			p.Seeds = 40
		}
		if tortureOverride != nil {
			tortureOverride(&p)
		}
		return Torture(p)
	}},
	{"simscale", "sim-kernel throughput benchmark -> BENCH_sim.json", func(s Scale) *Report {
		p := DefaultSimScaleParams()
		if s == ScaleQuick {
			p.Points = []SimScalePoint{
				{Shards: 2000, Clients: 200, Servers: 50},
				{Shards: 5000, Clients: 500, Servers: 100},
				{Shards: 10000, Clients: 1000, Servers: 200},
			}
			p.SimTime = 2 * time.Minute
		}
		if simScaleOverride != nil {
			simScaleOverride(&p)
		}
		return SimScale(p)
	}},
	{"controlscale", "partitioned control plane: delta publish cost -> BENCH_controlplane.json", func(s Scale) *Report {
		p := DefaultControlScaleParams()
		if s == ScaleQuick {
			p.Points = []ControlScalePoint{
				{Shards: 20000, PartitionMaxShards: 2000, MiniSMMaxShards: 2000, ChurnPerPartition: 50, Rounds: 3},
			}
		}
		if controlScaleOverride != nil {
			controlScaleOverride(&p)
		}
		return ControlScale(p)
	}},
	{"solverscale", "solver fast-path scale benchmark (serial vs parallel)", func(s Scale) *Report {
		p := DefaultSolverBenchParams()
		if s == ScaleQuick {
			p.Servers, p.Shards = 1000, 20000
		}
		return SolverScale(p)
	}},
	{"ablations", "extra §5.3 design-choice ablations", func(s Scale) *Report {
		p := DefaultSolverAblationParams()
		if s == ScaleQuick {
			p.Servers, p.Shards, p.TimeLimit = 400, 30000, 10*time.Second
		}
		return Ablations(p)
	}},
}

// IDs returns the registered experiment ids in display order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Title returns an experiment's short description.
func Title(id string) string {
	for _, r := range registry {
		if r.id == id {
			return r.title
		}
	}
	return ""
}

// Run executes one experiment by id at the given scale.
func Run(id string, scale Scale) (*Report, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(scale), nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}
