// Command smbench regenerates the paper's tables and figures.
//
// Usage:
//
//	smbench -fig fig17            # one experiment, full-paper parameters
//	smbench -fig all -scale quick # everything, scaled down
//	smbench -fig solverscale      # solver perf benchmark -> BENCH_solver.json
//	smbench -fig fig21 -scale stress  # solver experiments at ~100k entities
//	smbench -list                 # show available experiment ids
//	smbench -faults "t=60s partition(region-a|region-b) for 120s"
//	                              # compound-fault experiment, custom timeline
//	smbench -fig controlscale     # 10M-shard control plane -> BENCH_controlplane.json
//	smbench -controlscale -controlplane-baseline BENCH_controlplane.json
//	                              # fast publish-cost smoke vs committed record
//
// Each experiment prints its parameters, result tables, downsampled curves,
// and headline findings; EXPERIMENTS.md records the paper-vs-measured
// comparison for every figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"shardmanager/internal/experiments"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "experiment id (fig1..fig23, solverscale, ablations) or 'all'")
	scale := flag.String("scale", "full", "'full' (paper parameters), 'quick', or 'stress' (~100k-entity solver problems)")
	benchOut := flag.String("bench-out", "BENCH_solver.json", "where the solverscale experiment writes its machine-readable benchmark record")
	list := flag.Bool("list", false, "list experiment ids and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or ui.perfetto.dev)")
	traceText := flag.String("trace-text", "", "write a human-readable text timeline of the run to this file")
	metricsOut := flag.String("metrics-out", "", "write the run's labeled metrics to this file (byte-stable for a given seed)")
	expo := flag.String("expo", "prom", "metrics exposition format: 'prom' (Prometheus text), 'json', or 'csv'")
	faultSpec := flag.String("faults", "", "fault-timeline DSL for the 'faults' experiment, e.g. \"t=60s partition(region-a|region-b) for 120s\" (see internal/faults); implies -fig faults unless -fig is set")
	tortureSeeds := flag.Int("torture-seeds", 0, "override the 'torture' experiment's seed count (0 keeps the scale default)")
	tortureStart := flag.Uint64("torture-start", 0, "override the 'torture' experiment's starting seed (0 keeps the default)")
	foundBugsOut := flag.String("foundbugs-out", "FOUNDBUGS_audit.json", "where the torture experiment writes its found-bug log (seed-pinned audit violations)")
	failOnBugs := flag.Bool("fail-on-bugs", false, "exit non-zero if the torture sweep records any audit violation or panic (CI gate)")
	benchSimOut := flag.String("bench-sim-out", "BENCH_sim.json", "where the simscale experiment writes its machine-readable kernel benchmark record")
	simSmoke := flag.Bool("sim-smoke", false, "run only the largest minute-cadence simscale point (120k shards) as a fast kernel-throughput smoke; implies -fig simscale unless -fig is set")
	simBaseline := flag.String("sim-baseline", "", "compare the simscale run's events/sec against this committed BENCH_sim.json (points matched by shard count); exit non-zero if any point regresses more than 20%")
	benchControlOut := flag.String("bench-controlplane-out", "BENCH_controlplane.json", "where the controlscale experiment writes its machine-readable control-plane benchmark record")
	controlSmoke := flag.Bool("controlscale", false, "run only the smallest controlscale point as a fast control-plane publish-cost smoke; implies -fig controlscale unless -fig is set")
	controlBaseline := flag.String("controlplane-baseline", "", "compare the controlscale run's delta entries/sec against this committed BENCH_controlplane.json (points matched by shard count); exit non-zero if any point regresses more than 20%")
	profOut := flag.String("prof-out", "", "write the kernel profiler's text report to this file (byte-stable for a given seed unless -prof-wall)")
	profJSON := flag.String("prof-json", "", "write the kernel profiler's JSON report to this file")
	profFolded := flag.String("prof-folded", "", "write folded stacks (flamegraph.pl / inferno / speedscope input) to this file")
	profWall := flag.Bool("prof-wall", false, "include wall-clock and allocation columns in the kernel profiler reports (nondeterministic)")
	cpuProfile := flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a Go heap profile taken at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *faultSpec != "" {
		experiments.SetFaultSpec(*faultSpec)
		if *fig == "all" {
			*fig = "faults"
		}
	}
	if *tortureSeeds > 0 || *tortureStart > 0 {
		experiments.SetTortureOverride(func(p *experiments.TortureParams) {
			if *tortureSeeds > 0 {
				p.Seeds = *tortureSeeds
			}
			if *tortureStart > 0 {
				p.StartSeed = *tortureStart
			}
		})
		if *fig == "all" {
			*fig = "torture"
		}
	}

	if *simSmoke {
		experiments.SetSimScaleOverride(func(p *experiments.SimScaleParams) {
			for _, pt := range p.Points {
				if pt.Shards == 120000 {
					p.Points = []experiments.SimScalePoint{pt}
					return
				}
			}
			if len(p.Points) > 0 { // fallback: keep the last point
				p.Points = p.Points[len(p.Points)-1:]
			}
		})
		if *fig == "all" {
			*fig = "simscale"
		}
	}

	if *controlSmoke {
		experiments.SetControlScaleOverride(func(p *experiments.ControlScaleParams) {
			if len(p.Points) > 1 {
				p.Points = p.Points[:1]
			}
		})
		if *fig == "all" {
			*fig = "controlscale"
		}
	}

	var tracer *trace.Tracer
	if *traceOut != "" || *traceText != "" {
		tracer = trace.New(trace.Options{})
		experiments.SetDefaultTracer(tracer)
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		// One registry across every deployment the run builds, so the
		// export covers the whole invocation.
		reg = metrics.NewRegistry()
		experiments.SetDefaultHealthFactory(func() *healthmon.Monitor {
			return healthmon.New(healthmon.Options{Registry: reg})
		})
	}
	var prof *simprof.Profile
	if *profOut != "" || *profJSON != "" || *profFolded != "" {
		// One profile across every deployment the run builds: deployments
		// run sequentially, so combined attribution is safe and covers the
		// whole invocation. Alloc attribution only when the wall-clock
		// columns that render it were requested (it costs ~1µs/event).
		prof = simprof.New(simprof.Options{Allocs: *profWall, Registry: reg})
		experiments.SetDefaultProfiler(func() sim.Profiler { return prof })
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Title(id))
		}
		return
	}
	sc := experiments.ScaleFull
	switch *scale {
	case "full":
	case "quick":
		sc = experiments.ScaleQuick
	case "stress":
		sc = experiments.ScaleStress
	default:
		fmt.Fprintf(os.Stderr, "smbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	bugsFound := false
	for _, id := range ids {
		start := time.Now()
		report, err := experiments.Run(id, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(report.Render())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Truncate(time.Millisecond))
		if report.ID == "solverscale" && *benchOut != "" {
			if err := writeBench(report, *benchOut); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "simscale" && *benchSimOut != "" {
			if err := writeBenchSim(report, *benchSimOut); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "simscale" && *simBaseline != "" {
			if err := checkSimBaseline(report, *simBaseline); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "controlscale" && *benchControlOut != "" {
			if err := writeBenchControl(report, *benchControlOut); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "controlscale" && *controlBaseline != "" {
			if err := checkControlBaseline(report, *controlBaseline); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "torture" && *foundBugsOut != "" {
			if err := writeFoundBugs(report, *foundBugsOut); err != nil {
				fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
				os.Exit(1)
			}
		}
		if report.ID == "torture" && *failOnBugs {
			if art, ok := report.Extra.(*experiments.TortureArtifacts); ok && (art.Violations > 0 || art.Panics > 0) {
				fmt.Fprintf(os.Stderr, "smbench: torture sweep recorded %d violations on %d seeds (%d panics); failing per -fail-on-bugs\n",
					art.Violations, art.SeedsHit, art.Panics)
				bugsFound = true
			}
		}
	}

	if err := writeTrace(tracer, *traceOut, *traceText); err != nil {
		fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeMetrics(reg, *metricsOut, *expo); err != nil {
		fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeProf(prof, *profOut, *profJSON, *profFolded, *profWall); err != nil {
		fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle live-heap numbers before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
	if bugsFound {
		os.Exit(1)
	}
}

// writeBenchSim writes the simscale experiment's structured kernel
// benchmark record (BENCH_sim.json): one entry per scale point with
// events/sec, allocs/event, heap depth, and the top-5 cost centers.
func writeBenchSim(r *experiments.Report, path string) error {
	if r.Extra == nil {
		return fmt.Errorf("simscale report carries no benchmark record")
	}
	data, err := json.MarshalIndent(r.Extra, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("kernel benchmark record written to %s\n", path)
	return nil
}

// checkSimBaseline guards kernel throughput: every point in the run that has
// a same-shard-count point in the committed BENCH_sim.json must reach at
// least 80% of its recorded events/sec. Wall-clock noise on shared machines
// is real, so the margin is deliberately loose — the gate exists to catch
// structural kernel regressions, not single-digit drift.
func checkSimBaseline(r *experiments.Report, path string) error {
	rec, ok := r.Extra.(*experiments.SimScaleRecord)
	if !ok || rec == nil {
		return fmt.Errorf("simscale report carries no benchmark record")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base experiments.SimScaleRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	basePts := make(map[int]experiments.SimScalePointRecord, len(base.Points))
	for _, pt := range base.Points {
		basePts[pt.Shards] = pt
	}
	checked := 0
	for _, pt := range rec.Points {
		b, ok := basePts[pt.Shards]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		checked++
		if pt.EventsPerSec < 0.8*b.EventsPerSec {
			return fmt.Errorf("kernel throughput regression at %d shards: %.0f events/sec vs committed %.0f (more than 20%% below %s)",
				pt.Shards, pt.EventsPerSec, b.EventsPerSec, path)
		}
		fmt.Printf("kernel-bench smoke: %d shards at %.0f events/sec vs committed %.0f (ok)\n",
			pt.Shards, pt.EventsPerSec, b.EventsPerSec)
	}
	if checked == 0 {
		return fmt.Errorf("no point in this run matches any committed point in %s", path)
	}
	return nil
}

// writeBenchControl writes the controlscale experiment's structured
// control-plane benchmark record (BENCH_controlplane.json): one entry per
// scale point with the mini-SM pool size, delta publication cost and bytes
// per publish, and simulated map-convergence latency.
func writeBenchControl(r *experiments.Report, path string) error {
	if r.Extra == nil {
		return fmt.Errorf("controlscale report carries no benchmark record")
	}
	data, err := json.MarshalIndent(r.Extra, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("control-plane benchmark record written to %s\n", path)
	return nil
}

// checkControlBaseline guards delta-publication throughput: every point in
// the run that has a same-shard-count point in the committed
// BENCH_controlplane.json must reach at least 80% of its recorded delta
// entries/sec. The loose margin tolerates shared-machine wall-clock noise;
// the gate exists to catch structural regressions in the delta publish path.
func checkControlBaseline(r *experiments.Report, path string) error {
	rec, ok := r.Extra.(*experiments.ControlScaleRecord)
	if !ok || rec == nil {
		return fmt.Errorf("controlscale report carries no benchmark record")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base experiments.ControlScaleRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	basePts := make(map[int]experiments.ControlScalePointRecord, len(base.Points))
	for _, pt := range base.Points {
		basePts[pt.Shards] = pt
	}
	checked := 0
	for _, pt := range rec.Points {
		b, ok := basePts[pt.Shards]
		if !ok || b.DeltaEntriesPerSec <= 0 {
			continue
		}
		checked++
		if pt.DeltaEntriesPerSec < 0.8*b.DeltaEntriesPerSec {
			return fmt.Errorf("delta publish regression at %d shards: %.0f entries/sec vs committed %.0f (more than 20%% below %s)",
				pt.Shards, pt.DeltaEntriesPerSec, b.DeltaEntriesPerSec, path)
		}
		fmt.Printf("control-plane smoke: %d shards at %.0f delta entries/sec vs committed %.0f (ok)\n",
			pt.Shards, pt.DeltaEntriesPerSec, b.DeltaEntriesPerSec)
	}
	if checked == 0 {
		return fmt.Errorf("no point in this run matches any committed point in %s", path)
	}
	return nil
}

// writeFoundBugs writes the torture sweep's found-bug log: every audit
// violation discovered, pinned to the seed that reproduces it (committed
// even when empty, so a sweep that finds nothing is distinguishable from a
// sweep that never ran).
func writeFoundBugs(r *experiments.Report, path string) error {
	if r.Extra == nil {
		return fmt.Errorf("torture report carries no artifacts")
	}
	data, err := json.MarshalIndent(r.Extra, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("found-bug log written to %s\n", path)
	return nil
}

// writeProf exports the run's kernel profile in the requested formats
// (no-op when no -prof-* flag was given).
func writeProf(prof *simprof.Profile, textPath, jsonPath, foldedPath string, wall bool) error {
	if prof == nil {
		return nil
	}
	opts := simprof.ReportOptions{Wall: wall}
	write := func(path string, render func(io.Writer, simprof.ReportOptions) error, what string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f, opts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s written to %s\n", what, path)
		return nil
	}
	if err := write(textPath, prof.WriteText, "kernel profile"); err != nil {
		return err
	}
	if err := write(jsonPath, prof.WriteJSON, "kernel profile (json)"); err != nil {
		return err
	}
	return write(foldedPath, prof.WriteFolded, "folded stacks")
}

// writeBench writes the solverscale experiment's machine-readable record
// (BENCH_solver.json): one flat JSON object with the headline numbers —
// problem size, evaluation throughput, moves, violations, and wall time.
// Integral values are emitted as JSON integers for readability.
func writeBench(r *experiments.Report, path string) error {
	obj := make(map[string]any, len(r.Values))
	for k, v := range r.Values {
		if v == float64(int64(v)) {
			obj[k] = int64(v)
		} else {
			obj[k] = v
		}
	}
	data, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchmark record written to %s\n", path)
	return nil
}

// writeMetrics exports the shared registry in the requested format (no-op
// when -metrics-out is unset).
func writeMetrics(reg *metrics.Registry, path, format string) error {
	if reg == nil || path == "" {
		return nil
	}
	var write func(io.Writer) error
	switch format {
	case "prom":
		write = reg.WritePrometheus
	case "json":
		write = reg.WriteJSON
	case "csv":
		write = reg.WriteCSV
	default:
		return fmt.Errorf("unknown exposition format %q (want prom, json, or csv)", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics written to %s (%s)\n", path, format)
	return nil
}

// writeTrace exports the tracer to the requested files (no-ops when tracing
// is off).
func writeTrace(tracer *trace.Tracer, chromePath, textPath string) error {
	if tracer == nil {
		return nil
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", chromePath)
	}
	if textPath != "" {
		f, err := os.Create(textPath)
		if err != nil {
			return err
		}
		if err := tracer.WriteText(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace timeline written to %s\n", textPath)
	}
	return nil
}
