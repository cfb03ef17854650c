// Package discovery models the service discovery system of §3.2: the
// orchestrator publishes each application's versioned shard map, and the
// system fans it out to all application clients "in a timely manner" through
// a multi-level data-distribution tree. We model the tree as a per-
// subscriber, per-publication propagation delay; what matters to SM is that
// clients act on *eventually consistent, slightly stale* maps, which the
// graceful migration protocol (§4.3) must tolerate without dropping
// requests.
//
// A map travels as a versioned delta chain (the "numbered configurations"
// of a replicated shard controller): the first publish of an application is
// its bootstrap snapshot, every later publish is the delta from the previous
// version, and a subscriber that cannot chain a delta onto the version it
// holds resyncs from the current map instead.
package discovery

import (
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/trace"
)

// lbDeliver attributes propagation deliveries in the kernel profiler.
var lbDeliver = sim.LabelFor("discovery", "deliver")

// DelayFunc returns the propagation delay for one delivery.
type DelayFunc func(rng *sim.RNG) time.Duration

// FixedDelay returns a DelayFunc with constant delay.
func FixedDelay(d time.Duration) DelayFunc {
	return func(*sim.RNG) time.Duration { return d }
}

// UniformDelay returns a DelayFunc uniform in [lo, hi].
func UniformDelay(lo, hi time.Duration) DelayFunc {
	if hi < lo {
		panic("discovery: UniformDelay hi < lo")
	}
	return func(rng *sim.RNG) time.Duration {
		return lo + time.Duration(rng.Int63()%int64(hi-lo+1))
	}
}

// DefaultDelay approximates a production dissemination tree: most clients
// learn a new map within a second or two.
func DefaultDelay() DelayFunc { return UniformDelay(500*time.Millisecond, 2*time.Second) }

// Subscription is one client's registration for an app's shard maps.
type Subscription struct {
	onSnapshot func(*shard.Map)
	onDelta    func(*shard.Delta)
	// self is the one-member batch this subscriber's own deliveries (the
	// start-up catch-up, and every publish under per-subscriber fan-out)
	// use. Its RNG is forked at Subscribe time: were delays drawn from one
	// shared service RNG, adding or removing any subscriber would shift
	// every other subscriber's delay sequence.
	self      subBatch
	lastSeen  int64
	cancelled bool
}

// Cancel stops future deliveries.
func (s *Subscription) Cancel() { s.cancelled = true }

// subBatch groups subscribers that share one delivery event (and one
// sampled propagation delay) per publication. Each batch owns a forked RNG,
// so batch membership changes never perturb other batches' delay streams.
type subBatch struct {
	rng  *sim.RNG
	subs []*Subscription
}

type appState struct {
	// current is the authoritative map. Its table is the service's own and
	// advances in place with every publish; its lists are shared with
	// publishers, subscribers and deltas in flight.
	current *shard.Map
	pubAt   time.Duration // simulated time current was published
	subs    []*Subscription
	batches []*subBatch
}

// publication is one published delta plus the number of scheduled
// deliveries still reading it. When the last one fires, the delta buffer
// becomes the service's spare for a later publish to restage.
type publication struct {
	d       *shard.Delta
	pending int
	next    *publication
}

// delivery is the pooled state of one scheduled delivery event to one
// subscriber batch, recycled when it fires. pub is nil for a catch-up,
// which delivers the current map.
type delivery struct {
	s     *Service
	st    *appState
	batch *subBatch
	pub   *publication
	pubAt time.Duration
	sp    trace.SpanID
	next  *delivery
}

// Service is the discovery system. One instance serves all applications.
type Service struct {
	loop  *sim.Loop
	rng   *sim.RNG
	delay DelayFunc
	apps  map[shard.AppID]*appState

	// fanoutBatch is the number of subscribers sharing one delivery event
	// (and one sampled propagation delay) per publication. The default of 1
	// gives every subscriber its own delay from its own RNG stream.
	// Large-scale experiments raise it so a publish schedules O(subs/batch)
	// events instead of O(subs).
	fanoutBatch int

	// Free lists recycling delivery and publication records, keeping
	// fan-out allocation-free.
	freeDeliveries   *delivery
	freePublications *publication
	// spare is the most recently released delta buffer. One suffices for a
	// publisher whose deliveries complete between publishes; keeping more
	// would pin the buffers of a burst (a failover's large diffs) for good.
	spare *shard.Delta

	// Publications counts accepted publishes, for tests and smctl.
	Publications int64

	// observers see every delivery outcome. Unlike Subscribe they consume
	// no RNG draws, so attaching one (healthmon and the auditor do) cannot
	// perturb a seeded run. lag is publish-to-delivery staleness; status is
	// "delivered", "stale", "cancelled", or "resync" (a subscriber that
	// could not chain onto a delta received the current map instead).
	observers []func(app shard.AppID, version int64, lag time.Duration, status string)
}

// AddObserver registers a delivery observer; observers fire in attachment
// order.
func (s *Service) AddObserver(fn func(app shard.AppID, version int64, lag time.Duration, status string)) {
	if fn == nil {
		panic("discovery: AddObserver(nil)")
	}
	s.observers = append(s.observers, fn)
}

// NewService returns a discovery service using the given delay model (nil
// means DefaultDelay).
func NewService(loop *sim.Loop, delay DelayFunc) *Service {
	if delay == nil {
		delay = DefaultDelay()
	}
	return &Service{
		loop:        loop,
		rng:         loop.RNG().Fork(),
		delay:       delay,
		apps:        make(map[shard.AppID]*appState),
		fanoutBatch: 1,
	}
}

// SetFanoutBatch sets how many subscribers share one delivery event per
// publication (n <= 1 gives every subscriber its own). Batch membership is
// fixed at Subscribe time, so the batch size must be chosen before any
// subscriber registers.
func (s *Service) SetFanoutBatch(n int) {
	if n < 1 {
		n = 1
	}
	for _, st := range s.apps {
		if len(st.subs) > 0 {
			panic("discovery: SetFanoutBatch after Subscribe")
		}
	}
	s.fanoutBatch = n
}

func (s *Service) state(app shard.AppID) *appState {
	st, ok := s.apps[app]
	if !ok {
		st = &appState{}
		s.apps[app] = st
	}
	return st
}

// stale reports (and counts) a publish that does not advance app's current
// map. Maps are applied in generation order when both sides are stamped
// (Gen > 0) — a publish whose fencing generation is behind the current
// map's was reordered in flight from a superseded control-plane incarnation
// — and in version order otherwise.
func (s *Service) stale(st *appState, app shard.AppID, version, gen int64) bool {
	stale := version <= st.current.Version
	if gen > 0 && st.current.Gen > 0 {
		stale = gen <= st.current.Gen
	}
	if stale {
		s.loop.Metrics().Counter("discovery_stale_publishes_total", "app", string(app)).Inc()
	}
	return stale
}

// Publish publishes m as its app's next version. The app's first publish is
// the bootstrap snapshot that later deltas chain onto; every later publish
// is diffed against the current map and travels as a delta, so its cost
// beyond the O(shards) diff scan is O(changed entries). Stale publishes
// (see PublishDelta) are dropped. The service keeps m's assignment lists,
// which must not be mutated afterwards; the table stays the caller's.
func (s *Service) Publish(m *shard.Map) {
	if m == nil {
		panic("discovery: Publish(nil)")
	}
	st := s.state(m.App)
	if st.current == nil {
		st.current = m.Clone()
		s.fanOut(st, nil)
		return
	}
	if s.stale(st, m.App, m.Version, m.Gen) {
		return
	}
	s.fanOut(st, m.Diff(st.current, s.deltaBuffer()))
}

// PublishDelta publishes an incremental update staged by a publisher that
// already knows its churn: d is applied to the app's current map and fanned
// out to subscribers, who chain it onto their own maps (see Subscribe).
//
// A delta whose generation (when stamped, Gen > 0) or target version is
// behind the current map is dropped as stale and counted in
// discovery_stale_publishes_total; a non-stale delta whose FromVersion does
// not match the current map is dropped and counted in
// discovery_delta_gap_publishes_total. A dropped d is returned unchanged.
//
// An accepted d belongs to the service from then on: deliveries in flight
// read it. PublishDelta returns an empty buffer to stage the next update
// into — a delta whose deliveries have all fired, when there is one.
func (s *Service) PublishDelta(d *shard.Delta) *shard.Delta {
	if d == nil {
		panic("discovery: PublishDelta(nil)")
	}
	st := s.state(d.App)
	if st.current == nil {
		panic("discovery: PublishDelta before the bootstrap Publish")
	}
	if s.stale(st, d.App, d.ToVersion, d.Gen) {
		return d
	}
	if st.current.Version != d.FromVersion {
		s.loop.Metrics().Counter("discovery_delta_gap_publishes_total", "app", string(d.App)).Inc()
		return d
	}
	s.fanOut(st, d)
	return s.deltaBuffer()
}

// deltaBuffer returns the spare delta buffer, or a new one.
func (s *Service) deltaBuffer() *shard.Delta {
	if d := s.spare; d != nil {
		s.spare = nil
		return d
	}
	return &shard.Delta{}
}

// fanOut installs one accepted publication — the bootstrap when d is nil,
// otherwise the delta d — as the app's current map and schedules one
// delivery per subscriber batch. This is the single apply-and-fan-out path
// every publish takes.
func (s *Service) fanOut(st *appState, d *shard.Delta) {
	var pub *publication
	if d != nil {
		if err := st.current.ApplyDelta(d); err != nil {
			panic("discovery: " + err.Error())
		}
		if pub = s.freePublications; pub != nil {
			s.freePublications = pub.next
			pub.next = nil
		} else {
			pub = &publication{}
		}
		pub.d = d
	}
	cur := st.current
	st.pubAt = s.loop.Now()
	s.Publications++
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_publications_total", "app", string(cur.App)).Inc()
		if d != nil {
			mr.Counter("discovery_delta_publishes_total", "app", string(cur.App)).Inc()
		}
		mr.Gauge("discovery_map_version", "app", string(cur.App)).Set(float64(cur.Version))
	}
	for _, b := range st.batches {
		s.schedule(st, b, pub, st.pubAt)
	}
	if pub != nil && pub.pending == 0 {
		s.release(pub)
	}
}

// release recycles a publication whose deliveries have all fired; its delta
// buffer becomes the spare.
func (s *Service) release(pub *publication) {
	s.spare = pub.d.Reset("", 0, 0, 0)
	*pub = publication{next: s.freePublications}
	s.freePublications = pub
}

// schedule posts one delivery of pub (nil: the current map) to batch after
// one propagation delay drawn from the batch's RNG. Its span stretches from
// publication to the subscribers' callbacks, so map-propagation lag is
// directly visible. pubAt is when the version was published, so staleness
// metrics measure from publication rather than from a later subscribe time.
func (s *Service) schedule(st *appState, batch *subBatch, pub *publication, pubAt time.Duration) {
	delay := s.delay(batch.rng)
	var sp trace.SpanID
	if tr := s.loop.Tracer(); tr.Enabled() {
		edits := 0
		if pub != nil {
			edits = pub.d.Len()
		}
		sp = tr.StartSpan("discovery", "propagate", 0,
			trace.String("app", string(st.current.App)),
			trace.Int64("version", st.current.Version),
			trace.Int("subs", len(batch.subs)),
			trace.Int("edits", edits))
	}
	dv := s.freeDeliveries
	if dv == nil {
		dv = &delivery{s: s}
	} else {
		s.freeDeliveries = dv.next
		dv.next = nil
	}
	dv.st, dv.batch, dv.pub, dv.pubAt, dv.sp = st, batch, pub, pubAt, sp
	if pub != nil {
		pub.pending++
	}
	s.loop.PostArgL(delay, lbDeliver, deliver, dv)
}

// deliver runs one scheduled delivery at its propagation instant.
func deliver(a any) {
	dv := a.(*delivery)
	s, st, batch, pub, pubAt, sp := dv.s, dv.st, dv.batch, dv.pub, dv.pubAt, dv.sp
	*dv = delivery{s: s, next: s.freeDeliveries}
	s.freeDeliveries = dv

	var d *shard.Delta
	if pub != nil {
		d = pub.d
	}
	lag := s.loop.Now() - pubAt
	status, delivered := "", 0
	for _, sub := range batch.subs {
		status = s.deliverTo(sub, st, d, lag)
		if status == "delivered" || status == "resync" {
			delivered++
		}
	}
	if tr := s.loop.Tracer(); tr.Enabled() {
		if len(batch.subs) > 1 {
			status = "delivered"
		}
		tr.EndSpan(sp, trace.String("status", status), trace.Int("delivered", delivered))
	}
	if pub != nil {
		if pub.pending--; pub.pending == 0 {
			s.release(pub)
		}
	}
}

// deliverTo hands one subscriber its update and returns the outcome status.
// A subscriber whose version chains onto the delta (lastSeen == FromVersion)
// applies it through onDelta; one that missed a version — or is receiving
// its catch-up (d == nil) — gets the current map through onSnapshot, unless
// it already holds that version.
func (s *Service) deliverTo(sub *Subscription, st *appState, d *shard.Delta, lag time.Duration) string {
	cur := st.current
	status, version := "delivered", cur.Version
	switch {
	case sub.cancelled:
		status = "cancelled"
	case d == nil:
		if cur.Version <= sub.lastSeen {
			status = "stale"
		}
	case d.ToVersion <= sub.lastSeen:
		status, version = "stale", d.ToVersion
	case sub.lastSeen > 0 && sub.lastSeen == d.FromVersion:
		version = d.ToVersion
	case cur.Version > sub.lastSeen:
		status = "resync"
	default:
		status, version = "stale", d.ToVersion
	}
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_deliveries_total",
			"app", string(cur.App), "status", status).Inc()
		if status == "delivered" || status == "resync" {
			mr.Histogram("discovery_propagation_ms", nil, "app", string(cur.App)).
				Observe(float64(lag) / float64(time.Millisecond))
		}
	}
	for _, obs := range s.observers {
		obs(cur.App, version, lag, status)
	}
	switch {
	case status == "delivered" && d != nil:
		sub.lastSeen = version
		sub.onDelta(d)
	case status == "delivered" || status == "resync":
		sub.lastSeen = version
		sub.onSnapshot(cur)
	}
	return status
}

// Subscribe registers a subscriber for app's shard maps. onSnapshot
// receives a full map: the start-up catch-up (the current map, after one
// propagation delay, if one exists) and a resync whenever the subscriber
// cannot chain onto a delivered delta. onDelta receives each in-order
// update (the N→N+1 delta when the subscriber holds N). Both arguments are
// service-owned and valid only during the callback: a subscriber copies the
// map's table (shard.Map.Clone/CloneInto) and applies deltas to its copy;
// the assignment lists inside are immutable and may be kept.
func (s *Service) Subscribe(app shard.AppID, onSnapshot func(*shard.Map), onDelta func(*shard.Delta)) *Subscription {
	if onSnapshot == nil || onDelta == nil {
		panic("discovery: Subscribe(nil)")
	}
	st := s.state(app)
	sub := &Subscription{onSnapshot: onSnapshot, onDelta: onDelta}
	sub.self = subBatch{rng: s.rng.Fork(), subs: []*Subscription{sub}}
	st.subs = append(st.subs, sub)
	if s.fanoutBatch > 1 {
		if nb := len(st.batches); nb == 0 || len(st.batches[nb-1].subs) == s.fanoutBatch {
			st.batches = append(st.batches, &subBatch{rng: s.rng.Fork()})
		}
		b := st.batches[len(st.batches)-1]
		b.subs = append(b.subs, sub)
	} else {
		st.batches = append(st.batches, &sub.self)
	}
	if st.current != nil {
		// Start-up catch-up is per-subscriber even in batch mode: the new
		// subscriber fetches the current map on its own stream.
		s.schedule(st, &sub.self, nil, st.pubAt)
	}
	return sub
}

// Current returns a copy of the latest published map for app (no delay —
// this is the authoritative read used by control-plane components, not
// clients), or nil. The copy's table is the caller's; its lists are shared.
func (s *Service) Current(app shard.AppID) *shard.Map {
	st, ok := s.apps[app]
	if !ok || st.current == nil {
		return nil
	}
	return st.current.Clone()
}

// CurrentMeta returns the version and generation of app's current map
// without copying it, or ok=false when nothing has been published. Clients
// use it to decide whether a refresh is worth the copy.
func (s *Service) CurrentMeta(app shard.AppID) (version, gen int64, ok bool) {
	st, found := s.apps[app]
	if !found || st.current == nil {
		return 0, 0, false
	}
	return st.current.Version, st.current.Gen, true
}

// CurrentInto copies the latest published map for app into dst, reusing its
// table (shard.Map.CloneInto; dst may be nil). Returns the copy, or nil when
// nothing has been published.
func (s *Service) CurrentInto(app shard.AppID, dst *shard.Map) *shard.Map {
	st, ok := s.apps[app]
	if !ok || st.current == nil {
		return nil
	}
	return st.current.CloneInto(dst)
}
