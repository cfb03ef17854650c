package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// endToEndUnits and perLayerUnits name every metric the benchmark reports,
// with its unit. BENCHMARK.json at the repository root lists the same
// names (the package tests check it).
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"sim_s_per_host_s": "s/s",
	"heap_live_mb":     "MB",
	"req_p50_ms":       "ms",
	"req_p99_ms":       "ms",
	"req_p999_ms":      "ms",
	"req_ok_pct":       "%",
	"slo_ok_pct":       "%",
}

// layerModules are the modules whose CPU-profile time is reported as
// <module>.host_ms.
var layerModules = []string{
	"sim", "routing", "rpcnet", "appserver", "apps", "orchestrator", "allocator",
	"solver", "discovery", "shard", "coord", "cluster", "taskcontroller", "audit",
}

// layerMetrics computes the per-layer metrics of a traced repetition.
func layerMetrics(in *inputs, o *outcome, plain, traced []*outcome, rec *layerRec) map[string]metricValue {
	m := map[string]metricValue{}
	units := perLayerUnits()
	put := func(name string, v float64) { m[name] = metricValue{v, units[name]} }

	// End-to-end figures that can be 0, reported here unbounded.
	put("req_fail_pct", o.failPct())
	put("slo_miss_pct", o.sloMissPct())
	conv := o.converge.Seconds()
	if o.converge < 0 {
		conv = -1 // never converged; the run is incorrect
	}
	put("converge_s", conv)
	put("req_samples", float64(o.samples))
	put("requests", float64(o.issued))
	untracedRate, tracedRate := median(plain, simRate), median(traced, simRate)
	put("trace_overhead_pct", 100*(untracedRate/tracedRate-1))

	// sim and runtime: events and allocations from the untraced repetition,
	// queue depth from the profiler.
	u := plain[0]
	put("sim.events", float64(u.events))
	put("sim.events_per_host_s", float64(u.events)/u.measureHostS)
	put("sim.allocs_per_event", float64(u.allocObjects)/float64(max(u.events, 1)))
	put("sim.queue_max", float64(rec.prof.queueMax))
	put("runtime.gc_cpu_pct", u.gcCPUPct)

	// routing, from every request's routing.Result.
	put("routing.attempts_per_req", float64(o.attempts)/float64(o.issued))
	put("routing.retry_pct", 100*float64(o.retried)/float64(o.issued))
	for _, r := range failReasonNames {
		put("routing.fail."+r, float64(o.failReasons[r]))
	}
	put("routing.map_updates", float64(o.mapUpdates))

	// rpcnet, from the kernel profiler's labels.
	dn, dms := rec.prof.label("rpcnet", "deliver")
	rn, rms := rec.prof.label("rpcnet", "reply")
	tn, _ := rec.prof.label("rpcnet", "timeout")
	put("rpcnet.deliver_events", float64(dn))
	put("rpcnet.reply_events", float64(rn))
	put("rpcnet.timeout_events", float64(tn))
	put("rpcnet.deliver_host_ms", dms)
	put("rpcnet.reply_host_ms", rms)

	// appserver and the application wrapper.
	put("appserver.forwarded_pct", 100*float64(o.forwarded)/float64(max(o.ok, 1)))
	put("apps.handle_calls", float64(rec.handleCalls))
	put("apps.handle_ns_per_call", float64(rec.handleNS)/float64(max(rec.handleCalls, 1)))

	// orchestrator, from its public counters, the allocate label and the
	// migration hooks.
	put("orchestrator.allocations_periodic", float64(o.periodicRuns))
	put("orchestrator.allocations_emergency", float64(o.emergencyRuns))
	an, ams := rec.prof.label("orchestrator", "allocate")
	put("orchestrator.allocate_host_ms_per_run", ams/float64(max(an, 1)))
	put("orchestrator.moves", float64(o.moves))
	put("orchestrator.publishes", float64(o.publishes))
	put("orchestrator.failed_rpcs", float64(o.failedRPCs))
	put("orchestrator.migrations", float64(len(rec.migDur)))
	mig := slices.Clone(rec.migDur)
	slices.Sort(mig)
	put("orchestrator.migration_p50_s", quantile(mig, 0.5).Seconds())
	put("orchestrator.migration_p99_s", quantile(mig, 0.99).Seconds())

	// discovery and coord, from the observation hooks.
	lags := slices.Clone(rec.lags)
	slices.Sort(lags)
	put("discovery.deliveries", float64(rec.deliveries))
	put("discovery.lag_p50_ms", ms(quantile(lags, 0.5)))
	put("discovery.lag_p99_ms", ms(quantile(lags, 0.99)))
	put("coord.writes", float64(rec.coordWrites))
	_, negMS := rec.prof.label("cluster", "negotiate")
	put("cluster.negotiate_host_ms", negMS)

	// CPU profile: host milliseconds by module and host share by path.
	a := rec.attr
	if a == nil {
		a = &attribution{moduleNS: map[string]int64{}, pathNS: map[string]int64{}}
	}
	for _, mod := range layerModules {
		put(mod+".host_ms", float64(a.moduleNS[mod])/1e6)
	}
	put("runtime.gc_host_ms", float64(a.moduleNS["runtime.gc"])/1e6)
	put("stackbench.host_ms", float64(a.moduleNS["stackbench"])/1e6)
	put("profile.samples", float64(a.samples))
	for _, p := range pathNames {
		put("path."+p+"_share_pct", 100*float64(a.pathNS[p])/float64(max(a.totalNS, 1)))
	}
	put("audit.checks", float64(sumChecks(rec.w.d.Auditor.Checks())))
	put("audit.violations", float64(rec.w.d.Auditor.ViolationCount()))
	return m
}

func sumChecks(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// perLayerUnits lists every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"req_fail_pct":                          "%",
		"slo_miss_pct":                          "%",
		"converge_s":                            "s",
		"req_samples":                           "count",
		"requests":                              "count",
		"trace_overhead_pct":                    "%",
		"sim.events":                            "count",
		"sim.events_per_host_s":                 "1/s",
		"sim.allocs_per_event":                  "count",
		"sim.queue_max":                         "count",
		"runtime.gc_cpu_pct":                    "%",
		"routing.attempts_per_req":              "count",
		"routing.retry_pct":                     "%",
		"routing.map_updates":                   "count",
		"rpcnet.deliver_events":                 "count",
		"rpcnet.reply_events":                   "count",
		"rpcnet.timeout_events":                 "count",
		"rpcnet.deliver_host_ms":                "ms",
		"rpcnet.reply_host_ms":                  "ms",
		"appserver.forwarded_pct":               "%",
		"apps.handle_calls":                     "count",
		"apps.handle_ns_per_call":               "ns",
		"orchestrator.allocations_periodic":     "count",
		"orchestrator.allocations_emergency":    "count",
		"orchestrator.allocate_host_ms_per_run": "ms",
		"orchestrator.moves":                    "count",
		"orchestrator.publishes":                "count",
		"orchestrator.failed_rpcs":              "count",
		"orchestrator.migrations":               "count",
		"orchestrator.migration_p50_s":          "s",
		"orchestrator.migration_p99_s":          "s",
		"discovery.deliveries":                  "count",
		"discovery.lag_p50_ms":                  "ms",
		"discovery.lag_p99_ms":                  "ms",
		"coord.writes":                          "count",
		"cluster.negotiate_host_ms":             "ms",
		"runtime.gc_host_ms":                    "ms",
		"stackbench.host_ms":                    "ms",
		"profile.samples":                       "count",
		"audit.checks":                          "count",
		"audit.violations":                      "count",
	}
	for _, r := range failReasonNames {
		u["routing.fail."+r] = "count"
	}
	for _, mod := range layerModules {
		u[mod+".host_ms"] = "ms"
	}
	for _, p := range pathNames {
		u["path."+p+"_share_pct"] = "%"
	}
	return u
}

// report prints the human-readable part of a run to standard output; the
// JSON result line always comes last.
type report struct{ w io.Writer }

func (r *report) printf(format string, a ...any) { fmt.Fprintf(r.w, format, a...) }

func (r *report) header(c config, in *inputs) {
	p := in.p
	mode := "untraced (end-to-end metrics)"
	if c.trace == 1 {
		mode = "traced (per-layer metrics)"
	}
	r.printf("== stackbench %s seed=%d %s scale=%s\n", p.name, in.seed, mode, c.scale)
	ctx, _ := json.Marshal(map[string]any{"machine": machineContext(), "workload": p.name,
		"seed": in.seed, "trace": c.trace, "scale": c.scale})
	r.printf("context: %s\n", ctx)
	r.printf("inputs: %d shards x 3 replicas (primary-secondary), %d servers in %d regions, %d keys preloaded; "+
		"%d requests, open-loop Poisson at %.0f/s over %v simulated, %.0f%% puts\n",
		p.shards, p.serversPerRegion*len(regions), len(regions), len(in.keys),
		len(in.reqs), p.rate, p.measure, 100*p.putFrac)
	r.printf("generator lateness: 0 ms by construction (arrivals fire at their scheduled simulated time; latency is timed from it)\n")
	if p.upgradeAt > 0 {
		r.printf("disruption: rolling upgrade of every region's job at +%v, %d containers per region at a time, TaskController-gated\n",
			p.upgradeAt, p.upgradeConcurrency)
	}
	if p.failAt > 0 {
		r.printf("disruption: every %s machine fails at +%v and recovers at +%v\n", p.failRegion, p.failAt, p.recoverAt)
	}
}

func (r *report) reps(outs []*outcome) {
	for i, o := range outs {
		r.printf("rep %d: setup %.3fs, window %.3fs host for %.0fs simulated (%.2f sim s/host s), heap %.1f MB\n",
			i+1, o.setupS, o.measureHostS, o.simSeconds, simRate(o), float64(o.heapLiveBytes)/(1<<20))
	}
	o := outs[0]
	r.printf("requests: %d issued, %d ok, %d failed, %d unresolved; %d latency samples (p99.9 has %d beyond it)\n",
		o.issued, o.ok, o.failed, o.unresolved, o.samples, o.samples/1000)
}

func (r *report) metrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	r.printf("%-42s %16s  %s\n", "metric", "value", "unit")
	for _, k := range names {
		r.printf("%-42s %16.4f  %s\n", k, m[k].Value, m[k].Unit)
	}
}

func (r *report) labels(rows []labelRow) {
	r.printf("per-label dispatch time (measured window, sorted by host time):\n")
	r.printf("  %-36s %10s %16s %12s %15s\n", "label", "events", "event_share_pct", "host_ms", "host_share_pct")
	for _, row := range rows {
		r.printf("  %-36s %10d %16.2f %12.1f %15.2f\n", row.label, row.events, row.eventSharePct, row.hostMS, row.hostSharePct)
	}
}

func (r *report) attribution(a *attribution) {
	if a == nil {
		return
	}
	r.printf("cpu profile: %d samples, %.0f ms\n", a.samples, float64(a.totalNS)/1e6)
	type kv struct {
		k  string
		ns int64
	}
	var mods []kv
	for k, v := range a.moduleNS {
		mods = append(mods, kv{k, v})
	}
	slices.SortFunc(mods, func(x, y kv) int {
		if x.ns != y.ns {
			return int(y.ns - x.ns)
		}
		return strings.Compare(x.k, y.k)
	})
	for _, e := range mods {
		r.printf("  module %-16s %8.1f ms %6.2f%%\n", e.k, float64(e.ns)/1e6, 100*float64(e.ns)/float64(max(a.totalNS, 1)))
	}
	for _, p := range pathNames {
		r.printf("  path   %-16s %8.1f ms %6.2f%%\n", p, float64(a.pathNS[p])/1e6, 100*float64(a.pathNS[p])/float64(max(a.totalNS, 1)))
	}
}

// predictions prints whether the traced run bears out what the benchmark
// predicts about each workload. They are expectations about where time goes,
// not correctness checks, so they do not fail the run.
func (r *report) predictions(p params, m map[string]metricValue) {
	v := func(k string) float64 { return m[k].Value }
	largest := func(path string) bool {
		for _, q := range pathNames {
			if q != path && v("path."+q+"_share_pct") >= v("path."+path+"_share_pct") {
				return false
			}
		}
		return true
	}
	type prediction struct {
		what string
		ok   bool
	}
	var preds []prediction
	add := func(what string, ok bool) { preds = append(preds, prediction{what, ok}) }
	switch p.name {
	case wlSteady:
		add("orchestrator.publishes = 0", v("orchestrator.publishes") == 0)
		add("the request path has the largest host share", largest("request"))
	case wlUpgrade:
		add("the publish path has the largest host share", largest("publish"))
	case wlFailover:
		add("req_fail_pct > 0", v("req_fail_pct") > 0)
		add("orchestrator.allocations_emergency >= 1", v("orchestrator.allocations_emergency") >= 1)
		add("converge_s > 0", v("converge_s") > 0)
	}
	for _, pr := range preds {
		verdict := "confirmed"
		if !pr.ok {
			verdict = "NOT confirmed"
		}
		r.printf("prediction: %s: %s\n", pr.what, verdict)
	}
}

func (r *report) checks(bad []string) {
	if len(bad) == 0 {
		r.printf("correctness: all checks passed\n")
		return
	}
	for _, b := range bad {
		r.printf("correctness FAILED: %s\n", b)
	}
}
