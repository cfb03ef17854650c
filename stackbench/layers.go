package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// kernelProf is the benchmark's own sim.Profiler: it times every dispatch
// by its (component, kind) label while the measured window is open.
type kernelProf struct {
	on       bool
	events   []int64
	hostNS   []int64
	queueMax int
}

func (p *kernelProf) OnSchedule(sim.Label) {}
func (p *kernelProf) OnCancel(sim.Label)   {}

func (p *kernelProf) Dispatch(lb sim.Label, _ time.Duration, heapLen, _ int, fn func()) {
	if !p.on {
		fn()
		return
	}
	start := time.Now()
	fn()
	ns := time.Since(start).Nanoseconds()
	for int(lb) >= len(p.events) {
		p.events = append(p.events, 0)
		p.hostNS = append(p.hostNS, 0)
	}
	p.events[lb]++
	p.hostNS[lb] += ns
	p.queueMax = max(p.queueMax, heapLen)
}

// labelRow is one line of the per-label host-time table.
type labelRow struct {
	label         string
	events        int64
	eventSharePct float64
	hostMS        float64
	hostSharePct  float64
}

// labelTable returns the per-label rows sorted by host time, with each
// label's share of dispatched events and of dispatch host time side by side.
func (p *kernelProf) labelTable() []labelRow {
	var evTotal, nsTotal int64
	for i := range p.events {
		evTotal += p.events[i]
		nsTotal += p.hostNS[i]
	}
	var rows []labelRow
	for i, n := range p.events {
		if n == 0 {
			continue
		}
		comp, kind := sim.LabelName(sim.Label(i))
		name := comp + "/" + kind
		if comp == "" {
			name = "(unlabeled)"
		}
		rows = append(rows, labelRow{
			label:         name,
			events:        n,
			eventSharePct: 100 * float64(n) / float64(max(evTotal, 1)),
			hostMS:        float64(p.hostNS[i]) / 1e6,
			hostSharePct:  100 * float64(p.hostNS[i]) / float64(max(nsTotal, 1)),
		})
	}
	slices.SortStableFunc(rows, func(a, b labelRow) int {
		switch {
		case a.hostMS > b.hostMS:
			return -1
		case a.hostMS < b.hostMS:
			return 1
		}
		return strings.Compare(a.label, b.label)
	})
	return rows
}

// label returns the events and host milliseconds dispatched under one label.
func (p *kernelProf) label(component, kind string) (int64, float64) {
	lb := int(sim.LabelFor(component, kind))
	if lb >= len(p.events) {
		return 0, 0
	}
	return p.events[lb], float64(p.hostNS[lb]) / 1e6
}

// span is one recorded interval. Times are simulated; hostNS is set only
// for spans the benchmark timed on the host (HandleRequest).
type span struct {
	parent     int
	name, note string
	start, end time.Duration
	hostNS     int64
}

// layerRec is everything the traced run records from outside the stack:
// spans, hook counts, the application wrapper's timings, the kernel
// profile and the CPU profile of the measured window.
type layerRec struct {
	w    *world
	prof *kernelProf

	measuring bool
	spans     []span
	reqSpan   []int // request index -> span id (index+1; 0 = none)
	migOpen   map[shard.ID]int
	pubSpan   map[int64]int

	migDur      []time.Duration
	lags        []time.Duration
	deliveries  int64
	coordWrites int64
	handleCalls int64
	handleNS    int64

	cpu    bytes.Buffer
	cpuErr error
	attr   *attribution
}

func newLayerRec(w *world, prof *kernelProf) *layerRec {
	rec := &layerRec{
		w:       w,
		prof:    prof,
		reqSpan: make([]int, len(w.in.reqs)),
		migOpen: map[shard.ID]int{},
		pubSpan: map[int64]int{},
	}
	w.app.rec = rec
	return rec
}

func (r *layerRec) now() time.Duration { return r.w.d.Loop.Now() }

func (r *layerRec) addSpan(s span) int {
	r.spans = append(r.spans, s)
	return len(r.spans)
}

// begin opens the measured window: the kernel profiler and the CPU profile
// start here.
func (r *layerRec) begin() {
	r.measuring = true
	r.prof.on = true
	r.cpuErr = pprof.StartCPUProfile(&r.cpu)
}

// end closes the measured window and attributes the CPU profile.
func (r *layerRec) end() {
	if r.cpuErr == nil {
		pprof.StopCPUProfile()
	}
	r.measuring = false
	r.prof.on = false
	if r.cpuErr == nil {
		samples, err := parseCPUProfile(r.cpu.Bytes())
		if err != nil {
			r.cpuErr = err
		} else {
			r.attr = attribute(samples)
		}
	}
	r.cpu = bytes.Buffer{}
}

// finish closes spans still open when the run ends.
func (r *layerRec) finish() {
	for _, id := range r.migOpen {
		r.spans[id-1].end = r.now()
		r.spans[id-1].note = "unfinished"
	}
}

func (r *layerRec) requestIssued(i int) {
	op := "get"
	if r.w.in.reqs[i].put {
		op = "put"
	}
	r.reqSpan[i] = r.addSpan(span{name: "request", note: op, start: r.now(), end: -1})
}

func (r *layerRec) requestResolved(i int, res routing.Result) {
	s := &r.spans[r.reqSpan[i]-1]
	s.end = r.now()
	if !res.OK {
		s.note += " err=" + res.Err
	}
}

// handled records one HandleRequest call the application wrapper timed.
func (r *layerRec) handled(req *appserver.Request, ns int64) {
	if !r.measuring {
		return
	}
	r.handleCalls++
	r.handleNS += ns
	parent := 0
	if i := requestIndex(req); i >= 0 && i < len(r.reqSpan) {
		parent = r.reqSpan[i]
	}
	r.addSpan(span{parent: parent, name: "apps.HandleRequest", start: r.now(), end: r.now(), hostNS: ns})
}

// requestIndex recovers the benchmark's request index from a request's
// payload (-1 if it carries none).
func requestIndex(req *appserver.Request) int {
	switch p := req.Payload.(type) {
	case reqTag:
		return int(p)
	case apps.KVPut:
		if i, err := strconv.Atoi(strings.TrimPrefix(p.Value, "w")); err == nil {
			return i
		}
	}
	return -1
}

func (r *layerRec) migrationStarted(s shard.ID) {
	r.migOpen[s] = r.addSpan(span{name: "orchestrator.migration", note: string(s), start: r.now(), end: -1})
}

func (r *layerRec) migrationFinished(s shard.ID) {
	id, ok := r.migOpen[s]
	if !ok {
		return
	}
	delete(r.migOpen, s)
	sp := &r.spans[id-1]
	sp.end = r.now()
	if r.measuring {
		r.migDur = append(r.migDur, sp.end-sp.start)
	}
}

func (r *layerRec) published(version int64) {
	r.pubSpan[version] = r.addSpan(span{name: "orchestrator.publish",
		note: "v" + strconv.FormatInt(version, 10), start: r.now(), end: r.now()})
}

func (r *layerRec) delivered(version int64, lag time.Duration) {
	r.addSpan(span{parent: r.pubSpan[version], name: "discovery.deliver", start: r.now() - lag, end: r.now()})
	if r.measuring {
		r.deliveries++
		r.lags = append(r.lags, lag)
	}
}

func (r *layerRec) coordWrite() {
	if r.measuring {
		r.coordWrites++
	}
}

// writeSpans writes the recorded spans as JSON lines:
// [id, parent, name, note, start_ms, end_ms, host_ns] (simulated times).
func (r *layerRec) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(bw, "[%d,%d,%q,%q,%.3f,%.3f,%d]\n", i+1, s.parent, s.name, s.note,
			ms(s.start), ms(s.end), s.hostNS)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appWrapper wraps every server's KV application so the traced run can count
// and time HandleRequest from outside the application.
type appWrapper struct {
	backing *apps.KVBacking
	rec     *layerRec
}

func newAppWrapper(b *apps.KVBacking) *appWrapper { return &appWrapper{backing: b} }

func (a *appWrapper) factory(s *appserver.Server) appserver.Application {
	return &timedKV{KVStore: apps.NewKVStore(s, a.backing), wrap: a}
}

// timedKV embeds the KV store, so it implements exactly the interfaces the
// store does, and times HandleRequest.
type timedKV struct {
	*apps.KVStore
	wrap *appWrapper
}

func (t *timedKV) HandleRequest(req *appserver.Request) (any, error) {
	start := time.Now()
	v, err := t.KVStore.HandleRequest(req)
	if rec := t.wrap.rec; rec != nil {
		rec.handled(req, time.Since(start).Nanoseconds())
	}
	return v, err
}
