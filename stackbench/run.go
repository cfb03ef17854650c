package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/routing"
	"shardmanager/internal/sim"
)

// Request states.
const (
	stPending uint8 = iota
	stOK
	stFailed
)

// outcome is what one repetition measured. The sim section is a function of
// the inputs alone; the host section is what this machine took.
type outcome struct {
	// Simulated and deterministic.
	issued, ok, failed, unresolved int
	doubleResolved, badValues      int
	// latencies holds the successful requests' latencies in issue order
	// until summarize reduces them to samples, quantiles and a hash.
	latencies      []time.Duration
	samples        int
	p50, p99, p999 time.Duration
	latencyHash    uint64
	sloMisses      int
	attempts       int64
	retried        int
	forwarded      int
	failReasons    map[string]int
	mapUpdates     int64
	events         uint64
	publishes      int64
	moves          int64
	periodicRuns   int64
	emergencyRuns  int64
	failedRPCs     int64
	converge       time.Duration // -1 when it never converged
	finalConverged bool
	// stragglers describes the first shards still unconverged at the end.
	stragglers []string
	simSeconds float64

	// Host.
	setupS        float64
	measureHostS  float64
	heapLiveBytes uint64
	allocObjects  uint64
	gcCPUPct      float64
}

// runState drives one repetition's measured window: the open-loop
// generator, the disruption schedule, and the per-request bookkeeping.
type runState struct {
	w     *world
	rec   *layerRec // nil when untraced
	t0    time.Duration
	next  int
	state []uint8
	out   *outcome

	disruptAt     time.Duration
	sawUnhealthy  bool
	needUnhealthy bool
	convergeAt    time.Duration
	poller        *sim.Ticker
	upgradesLeft  int
}

// runRep builds a fresh world from the inputs and runs one repetition.
func runRep(in *inputs, traced bool) (*outcome, *layerRec, error) {
	var prof *kernelProf
	var profiler sim.Profiler // stays a nil interface when untraced
	if traced {
		prof = &kernelProf{}
		profiler = prof
	}
	start := time.Now()
	w, err := buildWorld(in, traced, profiler)
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{failReasons: map[string]int{}, converge: -1}
	out.setupS = time.Since(start).Seconds()
	var rec *layerRec
	if traced {
		rec = newLayerRec(w, prof)
		observe(w.d, rec)
	}
	rs := &runState{w: w, rec: rec, out: out, state: make([]uint8, len(in.reqs))}
	d := w.d
	loop := d.Loop
	p := in.p

	ev0 := loop.Dispatched()
	ver0 := d.Orch.Version()
	moves0, per0, em0, rpc0 := d.Orch.ShardMoves.Value(), d.Orch.PeriodicRuns.Value(),
		d.Orch.EmergencyRuns.Value(), d.Orch.FailedRPCs.Value()
	maps0 := w.mapUpdates()

	rs.t0 = loop.Now()
	rs.schedule()
	if p.upgradeAt > 0 {
		loop.AtL(rs.t0+p.upgradeAt, lbDisrupt, rs.startUpgrade)
	}
	if p.failAt > 0 {
		fail := d.Managers[p.failRegion]
		loop.AtL(rs.t0+p.failAt, lbDisrupt, func() {
			fail.FailRegion()
			rs.disruptAt, rs.needUnhealthy = loop.Now(), true
			rs.startPoller()
		})
		loop.AtL(rs.t0+p.recoverAt, lbDisrupt, fail.RecoverRegion)
	}

	rt0 := readRuntime()
	if rec != nil {
		rec.begin()
	}
	hostStart := time.Now()
	loop.RunFor(p.measure)
	out.measureHostS = time.Since(hostStart).Seconds()
	if rec != nil {
		rec.end()
	}
	rt1 := readRuntime()
	out.simSeconds = p.measure.Seconds()
	out.events = loop.Dispatched() - ev0
	out.publishes = d.Orch.Version() - ver0
	out.moves = d.Orch.ShardMoves.Value() - moves0
	out.periodicRuns = d.Orch.PeriodicRuns.Value() - per0
	out.emergencyRuns = d.Orch.EmergencyRuns.Value() - em0
	out.failedRPCs = d.Orch.FailedRPCs.Value() - rpc0
	out.mapUpdates = w.mapUpdates() - maps0
	out.allocObjects = rt1.allocObjects - rt0.allocObjects
	if dt := rt1.totalCPU - rt0.totalCPU; dt > 0 {
		out.gcCPUPct = 100 * (rt1.gcCPU - rt0.gcCPU) / dt
	}
	runtime.GC()
	out.heapLiveBytes = readRuntime().heapObjects
	runtime.KeepAlive(w)

	// Drain: every issued request must resolve; retries end within seconds.
	for i := 0; i < 120 && rs.pending() > 0; i++ {
		loop.RunFor(time.Second)
	}
	// The final placement must converge, and a disruption must have been
	// followed by a converged observation.
	for i := 0; i < 60 && (rs.poller != nil || !converged(d)); i++ {
		loop.RunFor(10 * time.Second)
	}
	out.stragglers = unconverged(d, 3)
	out.finalConverged = len(out.stragglers) == 0
	if rs.convergeAt > 0 {
		out.converge = rs.convergeAt - rs.disruptAt
	} else if p.upgradeAt == 0 && p.failAt == 0 {
		out.converge = 0
	}
	out.issued = len(in.reqs)
	for _, s := range rs.state {
		switch s {
		case stOK:
			out.ok++
		case stFailed:
			out.failed++
		default:
			out.unresolved++
		}
	}
	out.summarize()
	if rec != nil {
		rec.finish()
	}
	return out, rec, nil
}

// schedule posts the next arrival. Arrivals are open loop: each is sent at
// its precomputed time whatever happened to earlier ones, so the generator
// is never late in simulated time.
func (rs *runState) schedule() {
	if rs.next >= len(rs.w.in.reqs) {
		return
	}
	at := rs.t0 + rs.w.in.reqs[rs.next].at
	rs.w.d.Loop.PostArgL(at-rs.w.d.Loop.Now(), lbClient, fireArrival, rs)
}

func fireArrival(a any) {
	rs := a.(*runState)
	i := rs.next
	rs.next++
	rs.issue(i)
	rs.schedule()
}

// issue sends request i through its client.
func (rs *runState) issue(i int) {
	r := rs.w.in.reqs[i]
	c := rs.w.clients[r.client]
	key := rs.w.in.keys[r.key]
	if rs.rec != nil {
		rs.rec.requestIssued(i)
	}
	done := func(res routing.Result) { rs.resolve(i, res) }
	if r.put {
		c.Do(key, true, apps.KVOpPut, apps.KVPut{Value: putValue(i)}, done)
	} else {
		c.Do(key, false, apps.KVOpGet, reqTag(i), done)
	}
}

// resolve records request i's final result and checks it.
func (rs *runState) resolve(i int, res routing.Result) {
	out := rs.out
	if rs.state[i] != stPending {
		out.doubleResolved++
		return
	}
	r := rs.w.in.reqs[i]
	if rs.rec != nil {
		rs.rec.requestResolved(i, res)
	}
	out.attempts += int64(res.Attempts)
	if res.Attempts > 1 {
		out.retried++
	}
	if !res.OK {
		rs.state[i] = stFailed
		out.failReasons[failReason(res.Err)]++
		return
	}
	rs.state[i] = stOK
	lat := rs.w.d.Loop.Now() - (rs.t0 + r.at)
	out.latencies = append(out.latencies, lat)
	if lat > sloLimit {
		out.sloMisses++
	}
	if res.Hops > 0 {
		out.forwarded++
	}
	if !rs.validValue(r, res.Payload) {
		out.badValues++
	}
}

// validValue checks a successful result: a put returns "ok"; a get returns
// the key's preload or the value of a put issued for that key no later than
// now.
func (rs *runState) validValue(r request, payload any) bool {
	v, ok := payload.(string)
	if !ok {
		return false
	}
	if r.put {
		return v == "ok"
	}
	if v == preloadValue(r.key) {
		return true
	}
	id, err := strconv.Atoi(strings.TrimPrefix(v, "w"))
	if err != nil || !strings.HasPrefix(v, "w") || id < 0 || id >= len(rs.w.in.reqs) {
		return false
	}
	src := rs.w.in.reqs[id]
	return src.put && src.key == r.key && rs.t0+src.at <= rs.w.d.Loop.Now()
}

func (rs *runState) pending() int {
	n := 0
	for _, s := range rs.state[:rs.next] {
		if s == stPending {
			n++
		}
	}
	return n + len(rs.state) - rs.next
}

// startUpgrade begins a TaskController-gated rolling upgrade of every
// region's job.
func (rs *runState) startUpgrade() {
	d := rs.w.d
	rs.disruptAt = d.Loop.Now()
	rs.upgradesLeft = len(regions)
	for _, r := range regions {
		d.Managers[r].RollingUpgrade(d.Jobs[r], rs.w.in.p.upgradeConcurrency, "upgrade", func() {
			rs.upgradesLeft--
			if rs.upgradesLeft == 0 {
				rs.startPoller()
			}
		})
	}
}

// startPoller checks placement once a simulated second until it has
// converged after the disruption.
func (rs *runState) startPoller() {
	d := rs.w.d
	rs.poller = d.Loop.EveryL(time.Second, lbConverge, func() {
		if !converged(d) {
			rs.sawUnhealthy = true
			return
		}
		if rs.needUnhealthy && !rs.sawUnhealthy {
			return
		}
		rs.convergeAt = d.Loop.Now()
		rs.poller.Stop()
		rs.poller = nil
	})
}

func (w *world) mapUpdates() int64 {
	var n int64
	for _, c := range w.clients {
		n += c.MapUpdates
	}
	return n
}

// failReasons are the final routing errors the benchmark reports one by one.
var failReasonNames = []string{
	"no-replica", "server-gone", "unreachable", "reply-lost", "not-owner",
	"fenced", "not-primary", "loading", "preparing", "forward-loop",
	"forward-target-gone", "relay-lost", "forward-failed", "app-error", "other",
}

func failReason(err string) string {
	if strings.HasPrefix(err, "kvstore:") {
		return "app-error"
	}
	if slices.Contains(failReasonNames, err) {
		return err
	}
	return "other"
}

// runtimeSample is the runtime/metrics the benchmark reads around a window.
type runtimeSample struct {
	allocObjects, heapObjects uint64
	gcCPU, totalCPU           float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		heapObjects:  s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summarize reduces the latency list to what the report needs, so a run
// of many repetitions does not keep every list alive.
func (o *outcome) summarize() {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range o.latencies {
		for i := range b {
			b[i] = byte(uint64(l) >> (8 * i))
		}
		h.Write(b[:])
	}
	o.latencyHash = h.Sum64()
	s := o.latencies
	slices.Sort(s)
	o.samples = len(s)
	o.p50, o.p99, o.p999 = quantile(s, 0.50), quantile(s, 0.99), quantile(s, 0.999)
	o.latencies = nil
}

func (o *outcome) failPct() float64 {
	return 100 * float64(o.failed+o.unresolved) / float64(o.issued)
}

func (o *outcome) sloMissPct() float64 {
	return 100 * float64(o.failed+o.unresolved+o.sloMisses) / float64(o.issued)
}

// fingerprint renders every simulated metric and deterministic count of the
// outcome. Two runs of one seed, traced or not, must agree on it exactly.
func (o *outcome) fingerprint() string {
	reasons := make([]string, 0, len(o.failReasons))
	for _, r := range failReasonNames {
		if n := o.failReasons[r]; n > 0 {
			reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
		}
	}
	return fmt.Sprintf("issued=%d ok=%d failed=%d unresolved=%d double=%d bad=%d slo=%d "+
		"attempts=%d retried=%d fwd=%d reasons=[%s] maps=%d events=%d pubs=%d moves=%d "+
		"periodic=%d emergency=%d rpcfail=%d converge=%d final=%v latencies=%d/%d/%d/%d/%x",
		o.issued, o.ok, o.failed, o.unresolved, o.doubleResolved, o.badValues, o.sloMisses,
		o.attempts, o.retried, o.forwarded, strings.Join(reasons, ","), o.mapUpdates, o.events,
		o.publishes, o.moves, o.periodicRuns, o.emergencyRuns, o.failedRPCs, o.converge,
		o.finalConverged, o.samples, o.p50, o.p99, o.p999, o.latencyHash)
}

// checks returns the correctness failures of an outcome (empty when the
// run is correct).
func (o *outcome) checks(p params) []string {
	var bad []string
	if o.doubleResolved > 0 {
		bad = append(bad, fmt.Sprintf("%d requests resolved more than once", o.doubleResolved))
	}
	if o.unresolved > 0 {
		bad = append(bad, fmt.Sprintf("%d requests never resolved", o.unresolved))
	}
	if o.badValues > 0 {
		bad = append(bad, fmt.Sprintf("%d successful requests returned a value the workload never wrote", o.badValues))
	}
	if !o.finalConverged {
		bad = append(bad, "final placement did not converge: "+strings.Join(o.stragglers, "; "))
	}
	if o.converge < 0 {
		bad = append(bad, "placement never converged after the disruption")
	}
	if p.noRequestFailures && o.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d requests failed on a workload without faults", o.failed))
	}
	if o.samples < p.minSamples {
		bad = append(bad, fmt.Sprintf("only %d latency samples, want at least %d", o.samples, p.minSamples))
	}
	return bad
}
