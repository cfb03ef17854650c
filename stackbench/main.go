// Command stackbench benchmarks the whole Shard Manager stack: routing ->
// rpcnet -> appserver -> KV application, with the orchestrator, allocator,
// discovery, coordination store, cluster managers and TaskController running
// in one simulated three-region deployment. See README.md for the workloads
// and the metrics.
//
//	go run . --workload kv-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones from a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// heldOutSeed is reserved for confirming later performance claims: tune and
// develop on other seeds, then check a claim once on this one.
const heldOutSeed = 9001

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&c.seed, "seed", 1, fmt.Sprintf("workload seed (seed %d is held out for confirming claims)", heldOutSeed))
	fs.Float64Var(&c.seconds, "seconds", 10, "host seconds of measured windows to collect before stopping (at least minimum repetitions)")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	fs.StringVar(&c.scale, "scale", "full", "input size: full, or tiny for tests")
	fs.StringVar(&c.out, "out", "", "directory for the traced run's span file (not written if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.workload == "" || (c.trace != 0 && c.trace != 1) || c.seconds <= 0 {
		fmt.Fprintln(stderr, "stackbench: need --workload, --trace 0|1 and --seconds > 0")
		fs.Usage()
		return 2
	}
	names := []string{c.workload}
	if c.workload == "all" {
		names = workloadNames
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		modes := []int{c.trace}
		if c.workload == "all" {
			modes = []int{0, 1}
		}
		for _, mode := range modes {
			cc := c
			cc.workload, cc.trace = name, mode
			r, err := runWorkload(cc, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "stackbench: %s: %v\n", name, err)
				return 1
			}
			res.Correct = res.Correct && r.Correct
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			for k, v := range r.Metrics {
				if c.workload == "all" {
					k = name + "/" + k
				}
				res.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minReps is the fewest repetitions an untraced run makes, so setup time
// and host rates are medians and every run checks two-run determinism.
const minReps = 3

// maxReps bounds a run on a fast machine.
const maxReps = 20

// runWorkload runs one workload in one mode and prints its report.
func runWorkload(c config, stdout io.Writer) (*result, error) {
	p, err := workloadParams(c.workload, c.scale)
	if err != nil {
		return nil, err
	}
	in := genInputs(p, c.seed)
	rep := &report{w: stdout}
	rep.header(c, in)
	var r *result
	if c.trace == 0 {
		r, err = runUntraced(c, in, rep)
	} else {
		r, err = runTraced(c, in, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.metrics(r.Metrics)
	return r, nil
}

// runUntraced repeats set-up and the measured window until --seconds of
// measured host time have passed (at least minReps times) and reports the
// end-to-end metrics: host figures as medians over repetitions, simulated
// figures from the first (all repetitions must agree on them exactly).
func runUntraced(c config, in *inputs, rep *report) (*result, error) {
	var outs []*outcome
	spent := 0.0
	for len(outs) < maxReps && (len(outs) < minReps || spent < c.seconds) {
		o, _, err := runRep(in, false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
		spent += o.measureHostS
	}
	o := outs[0]
	bad := o.checks(in.p)
	bad = append(bad, determinism(outs, "repetition")...)
	m := map[string]metricValue{}
	for name, v := range map[string]float64{
		"setup_s":          median(outs, func(o *outcome) float64 { return o.setupS }),
		"sim_s_per_host_s": median(outs, simRate),
		"heap_live_mb":     median(outs, func(o *outcome) float64 { return float64(o.heapLiveBytes) / (1 << 20) }),
		"req_p50_ms":       ms(o.p50),
		"req_p99_ms":       ms(o.p99),
		"req_p999_ms":      ms(o.p999),
		"req_ok_pct":       100 - o.failPct(),
		"slo_ok_pct":       100 - o.sloMissPct(),
	} {
		m[name] = metricValue{v, endToEndUnits[name]}
	}
	rep.reps(outs)
	rep.checks(bad)
	return finish(outs, bad, m), nil
}

// runTraced alternates untraced and traced repetitions (at least one of
// each) and reports the per-layer metrics of the first traced one, with
// the tracing overhead measured against the untraced ones.
func runTraced(c config, in *inputs, rep *report) (*result, error) {
	var plain, traced []*outcome
	var rec *layerRec
	spent := 0.0
	for len(traced) < maxReps && (len(traced) == 0 || spent < c.seconds) {
		o, _, err := runRep(in, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, o)
		t, r, err := runRep(in, true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, t)
		if rec == nil {
			rec = r
		}
		spent += o.measureHostS + t.measureHostS
	}
	o := traced[0]
	bad := o.checks(in.p)
	bad = append(bad, determinism(append(slices.Clone(plain), traced...), "traced/untraced repetition")...)
	if rec.cpuErr != nil {
		bad = append(bad, "cpu profile: "+rec.cpuErr.Error())
	}
	aud := rec.w.d.Auditor
	if aud.ViolationCount() != 0 {
		bad = append(bad, fmt.Sprintf("auditor reported %d violations", aud.ViolationCount()))
	}
	m := layerMetrics(in, o, plain, traced, rec)
	if c.out != "" {
		path := filepath.Join(c.out, fmt.Sprintf("%s-seed%d.spans.jsonl", in.p.name, in.seed))
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeSpans(path); err != nil {
			return nil, err
		}
		rep.printf("spans: %d written to %s\n", len(rec.spans), path)
	}
	rep.reps(append(slices.Clone(plain), traced...))
	rep.labels(rec.prof.labelTable())
	rep.attribution(rec.attr)
	rep.predictions(in.p, m)
	rep.checks(bad)
	return finish(traced[:1], bad, m), nil
}

// finish assembles a result. attempted counts every request the measured
// outcomes issued; failed counts those whose outcome broke a correctness
// check. Requests the stack answered with an error are measured results
// (req_ok_pct), not benchmark failures, except on workloads without faults,
// where the checks reject them.
func finish(outs []*outcome, bad []string, m map[string]metricValue) *result {
	r := &result{Correct: len(bad) == 0, Metrics: m}
	for _, o := range outs {
		r.Attempted += o.issued
		r.Failed += o.doubleResolved + o.unresolved + o.badValues
	}
	return r
}

// determinism reports a failure unless every outcome has the first one's
// simulated metrics and deterministic counts.
func determinism(outs []*outcome, what string) []string {
	want := outs[0].fingerprint()
	for i, o := range outs[1:] {
		if got := o.fingerprint(); got != want {
			return []string{fmt.Sprintf("%s %d differs from the first:\n  first: %s\n  this:  %s", what, i+2, want, got)}
		}
	}
	return nil
}

func simRate(o *outcome) float64 { return o.simSeconds / o.measureHostS }

// median of f over the outcomes (there is always at least one).
func median(outs []*outcome, f func(*outcome) float64) float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// machineContext describes where a record was measured.
func machineContext() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
