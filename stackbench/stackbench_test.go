package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at tiny scale through the command's entry point
// and returns its result line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace,
		"--scale", "tiny", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstderr: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v", workload, trace, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, r.Correct, r.Attempted, r.Failed, stdout.String())
	}
	return r
}

func metricUnits(m map[string]metricValue) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

// Every workload passes its correctness checks at tiny scale, untraced and
// traced. A run is only correct when its repetitions (and, traced, the
// traced and untraced repetitions) agree on every simulated metric.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r := runTiny(t, w, "0")
			if got := metricUnits(r.Metrics); !maps.Equal(got, endToEndUnits) {
				t.Errorf("untraced metrics = %v, want %v", got, endToEndUnits)
			}
			r = runTiny(t, w, "1")
			if got := metricUnits(r.Metrics); !maps.Equal(got, perLayerUnits()) {
				t.Errorf("traced metrics = %v, want %v", got, perLayerUnits())
			}
			if v := r.Metrics["audit.checks"].Value; v == 0 {
				t.Errorf("auditor made no checks")
			}
		})
	}
}

// Two repetitions of one seed agree exactly; another seed gives another run.
func TestDeterminism(t *testing.T) {
	p, err := workloadParams(wlFailover, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(p, 5)
	a, _, err := runRep(in, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runRep(in, true)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
		t.Fatalf("untraced and traced runs of one seed differ:\n%s\n%s", fa, fb)
	}
	c, _, err := runRep(genInputs(p, 6), false)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() == c.fingerprint() {
		t.Fatalf("seeds 5 and 6 gave identical runs; the seed does not reach the inputs")
	}
}

// The value check accepts only the key's preload or a put issued for the
// same key no later than the read.
func TestValidValue(t *testing.T) {
	p, err := workloadParams(wlSteady, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(p, 1)
	w, err := buildWorld(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	put := slices.IndexFunc(in.reqs, func(r request) bool { return r.put })
	if put < 0 {
		t.Fatal("no put in the inputs")
	}
	// The read happens exactly when the put was issued.
	rs := &runState{w: w, t0: w.d.Loop.Now() - in.reqs[put].at}
	later := put + 1 + slices.IndexFunc(in.reqs[put+1:], func(r request) bool { return r.put })
	if later <= put {
		t.Fatal("only one put in the inputs")
	}
	get := request{at: in.reqs[put].at, key: in.reqs[put].key}
	other := request{key: (in.reqs[put].key + 1) % int32(len(in.keys))}
	for _, tc := range []struct {
		r    request
		v    any
		want bool
	}{
		{get, preloadValue(get.key), true},
		{get, putValue(put), true},
		{other, putValue(put), false},
		{other, preloadValue(get.key), false},
		{get, "w999999999", false},
		{request{key: in.reqs[later].key}, putValue(later), false}, // issued after the read
		{get, 42, false},
		{in.reqs[put], "ok", true},
		{in.reqs[put], "nope", false},
	} {
		if got := rs.validValue(tc.r, tc.v); got != tc.want {
			t.Errorf("validValue(key %d, %v) = %v, want %v", tc.r.key, tc.v, got, tc.want)
		}
	}
}

//go:noinline
func burn(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

// The profile decoder reads what runtime/pprof writes, and samples in this
// package's own functions land in the stackbench bucket.
func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink := 0
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sink += burn(1 << 16)
	}
	pprof.StopCPUProfile()
	t.Logf("burned to %d", sink)
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.samples == 0 || a.moduleNS["stackbench"] == 0 {
		t.Fatalf("samples=%d, stackbench=%dns (modules %v)", a.samples, a.moduleNS["stackbench"], a.moduleNS)
	}
	if got := moduleOf([]string{"runtime.mallocgc", "shardmanager/internal/shard.(*Map).Clone", "shardmanager/internal/orchestrator.(*Orchestrator).publish"}); got != "shard" {
		t.Errorf("moduleOf charged a runtime callee to %q, want its caller shard", got)
	}
	if got := moduleOf([]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}); got != "runtime.gc" {
		t.Errorf("moduleOf(gc worker) = %q", got)
	}
}

// BENCHMARK.json at the repository root names exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !maps.Equal(e2e, endToEndUnits) {
		t.Errorf("end_to_end = %v, want %v", e2e, endToEndUnits)
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !maps.Equal(layer, perLayerUnits()) {
		t.Errorf("per_layer = %v, want %v", layer, perLayerUnits())
	}
}
