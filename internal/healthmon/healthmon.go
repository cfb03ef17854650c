// Package healthmon is the always-on health/SLO monitoring plane. It
// aggregates signals from the orchestrator (migrations, role changes, map
// publications), application servers and routing clients (per-request
// outcomes), service discovery (map propagation staleness), and the cluster
// manager (container churn, maintenance) into live per-app shard
// availability, SLO burn-rate windows, violation intervals, and
// per-failure-domain breakdowns — the §8.1 evaluation numbers, computed
// continuously on the simulated clock instead of ad hoc per experiment.
//
// Every attachment point is deliberately RNG-free: hooks and observers fire
// synchronously inside existing events, so attaching a Monitor never
// perturbs a seeded run. In particular the Monitor must NOT subscribe to
// discovery (each subscriber draws propagation delays from the shared RNG);
// it uses discovery.AddObserver instead.
package healthmon

import (
	"sort"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/discovery"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// Options configure a Monitor.
type Options struct {
	// SLOTarget is the availability objective (default 0.9999 — the
	// paper's 99.99% shard availability SLO, §8.1).
	SLOTarget float64
	// Bucket is the success-ratio bucket width (default 30s, matching the
	// experiment trackers so cross-checks are bit-identical).
	Bucket time.Duration
	// Registry receives the monitor's live gauges and is returned by
	// Registry() for exposition. nil creates a private registry.
	Registry *metrics.Registry
	// WorstShards bounds the per-app worst-shard list in snapshots
	// (default 5).
	WorstShards int
}

// counts is an ok/total pair.
type counts struct {
	ok, total int64
}

func (c *counts) rate() float64 {
	if c.total == 0 {
		return 1
	}
	return float64(c.ok) / float64(c.total)
}

// migrationInfo describes one in-flight migration.
type migrationInfo struct {
	Shard    shard.ID
	From, To shard.ServerID
	Graceful bool
	Since    time.Duration
}

// appHealth is the monitor's state for one application.
type appHealth struct {
	ratio     *metrics.SuccessRatio
	totals    counts
	perShard  map[shard.ID]*counts
	perDomain map[string]map[string]*counts // level -> domain -> counts

	active           map[shard.ID]migrationInfo
	migOK, migFail   int64
	roleChanges      int64
	mapVersion       int64
	publishes        int64
	deliveries, lost int64 // discovery deliveries; lost = stale or cancelled
	maxLag           time.Duration
}

// regionHealth is the monitor's state for one cluster-manager region.
type regionHealth struct {
	running     int64
	starts      int64
	stops       int64
	unplanned   int64
	maintenance int64
}

// Monitor aggregates health signals. Create with New, attach with the
// Watch* methods, then Snapshot at any simulated time.
type Monitor struct {
	opts  Options
	clk   sim.Clock
	reg   *metrics.Registry
	start time.Duration

	apps        map[shard.AppID]*appHealth
	regions     map[topology.RegionID]*regionHealth
	regionOrder []topology.RegionID
	resolvers   []func(shard.ServerID) map[string]string
}

// New returns a Monitor. Call Bind before the simulation starts so
// observations are timestamped on the right clock.
func New(opts Options) *Monitor {
	if opts.SLOTarget <= 0 || opts.SLOTarget >= 1 {
		opts.SLOTarget = 0.9999
	}
	if opts.Bucket <= 0 {
		opts.Bucket = 30 * time.Second
	}
	if opts.WorstShards <= 0 {
		opts.WorstShards = 5
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Monitor{
		opts:    opts,
		reg:     reg,
		apps:    make(map[shard.AppID]*appHealth),
		regions: make(map[topology.RegionID]*regionHealth),
	}
}

// Bind attaches the simulated clock; the monitoring window starts now.
func (m *Monitor) Bind(clk sim.Clock) {
	m.clk = clk
	if clk != nil {
		m.start = clk.Now()
	}
}

// Registry returns the monitor's labeled-metrics registry (never nil).
func (m *Monitor) Registry() *metrics.Registry { return m.reg }

// SLOTarget returns the configured availability objective.
func (m *Monitor) SLOTarget() float64 { return m.opts.SLOTarget }

func (m *Monitor) now() time.Duration {
	if m.clk == nil {
		return 0
	}
	return m.clk.Now()
}

func (m *Monitor) app(id shard.AppID) *appHealth {
	a, ok := m.apps[id]
	if !ok {
		a = &appHealth{
			ratio:     metrics.NewSuccessRatio(m.opts.Bucket),
			perShard:  make(map[shard.ID]*counts),
			perDomain: make(map[string]map[string]*counts),
			active:    make(map[shard.ID]migrationInfo),
		}
		m.apps[id] = a
	}
	return a
}

func (m *Monitor) region(id topology.RegionID) *regionHealth {
	r, ok := m.regions[id]
	if !ok {
		r = &regionHealth{}
		m.regions[id] = r
		m.regionOrder = append(m.regionOrder, id)
	}
	return r
}

// domains resolves a server's failure-domain labels through the watched
// orchestrators, or nil.
func (m *Monitor) domains(id shard.ServerID) map[string]string {
	for _, resolve := range m.resolvers {
		if d := resolve(id); d != nil {
			return d
		}
	}
	return nil
}

// --- attachment points ---

// WatchClient subscribes to a routing client's final request outcomes —
// the ground truth for shard availability, observed exactly as the client
// experiences it (after all retries and forwards).
func (m *Monitor) WatchClient(c *routing.Client) {
	app := c.App
	c.OnResult(func(res routing.Result) { m.observe(app, res) })
}

// Observe records one request outcome directly (exported for tests and
// hand-wired setups; WatchClient is the normal path).
func (m *Monitor) Observe(app shard.AppID, res routing.Result) { m.observe(app, res) }

func (m *Monitor) observe(app shard.AppID, res routing.Result) {
	a := m.app(app)
	a.ratio.Observe(m.now(), res.OK)
	a.totals.total++
	if res.OK {
		a.totals.ok++
	}
	sc := a.perShard[res.Shard]
	if sc == nil {
		sc = &counts{}
		a.perShard[res.Shard] = sc
	}
	sc.total++
	if res.OK {
		sc.ok++
	}
	// Attribute to the failure domains of the server that handled the
	// final attempt; unroutable requests (no server) stay unattributed.
	if res.Server != "" {
		if doms := m.domains(res.Server); doms != nil {
			for level, domain := range doms {
				byDomain := a.perDomain[level]
				if byDomain == nil {
					byDomain = make(map[string]*counts)
					a.perDomain[level] = byDomain
				}
				dc := byDomain[domain]
				if dc == nil {
					dc = &counts{}
					byDomain[domain] = dc
				}
				dc.total++
				if res.OK {
					dc.ok++
				}
			}
		}
	}
	m.reg.Gauge("health_availability", "app", string(app)).Set(a.totals.rate())
}

// WatchOrchestrator attaches to the control plane's transition hooks and
// registers it as a failure-domain resolver.
func (m *Monitor) WatchOrchestrator(o *orchestrator.Orchestrator) {
	a := m.app(o.App())
	app := string(o.App())
	m.resolvers = append(m.resolvers, o.ServerDomains)
	o.AddHooks(orchestrator.Hooks{
		MigrationStarted: func(s shard.ID, from, to shard.ServerID, graceful bool) {
			a.active[s] = migrationInfo{Shard: s, From: from, To: to, Graceful: graceful, Since: m.now()}
			m.reg.Gauge("health_migrations_active", "app", app).Set(float64(len(a.active)))
		},
		MigrationFinished: func(s shard.ID, ok bool) {
			delete(a.active, s)
			if ok {
				a.migOK++
			} else {
				a.migFail++
			}
			m.reg.Gauge("health_migrations_active", "app", app).Set(float64(len(a.active)))
		},
		RoleChanged: func(s shard.ID, server shard.ServerID, from, to shard.Role) {
			a.roleChanges++
		},
		MapPublished: func(version int64, entries int) {
			a.mapVersion = version
			a.publishes++
		},
	})
}

// WatchDiscovery observes map-delivery outcomes for propagation staleness.
// It uses the RNG-free observer hook, never Subscribe.
func (m *Monitor) WatchDiscovery(s *discovery.Service) {
	s.AddObserver(func(app shard.AppID, version int64, lag time.Duration, status string) {
		a := m.app(app)
		a.deliveries++
		if status == "delivered" {
			if lag > a.maxLag {
				a.maxLag = lag
			}
		} else {
			a.lost++
		}
	})
}

// WatchManager observes one region's container lifecycle and maintenance
// notices. Listeners are append-only and RNG-free, so this is safe on a
// seeded run.
func (m *Monitor) WatchManager(mgr *cluster.Manager) {
	w := &clusterWatch{m: m, region: mgr.Region}
	mgr.AddListener(w)
	mgr.AddMaintenanceListener(w)
}

type clusterWatch struct {
	m      *Monitor
	region topology.RegionID
}

func (w *clusterWatch) ContainerStarted(cluster.Container) {
	r := w.m.region(w.region)
	r.running++
	r.starts++
}

func (w *clusterWatch) ContainerStopping(c cluster.Container, reason string) {
	r := w.m.region(w.region)
	r.running--
	r.stops++
	if reason == "machine-failure" {
		r.unplanned++
	}
}

func (w *clusterWatch) ContainerStopped(cluster.Container) {}

func (w *clusterWatch) MaintenanceScheduled(region topology.RegionID, ev cluster.MaintenanceEvent) {
	w.m.region(region).maintenance++
}

// --- cross-check accessors ---

// Rate returns the app's overall success fraction (1 if nothing observed).
func (m *Monitor) Rate(app shard.AppID) float64 { return m.app(app).ratio.Rate() }

// RateBetween returns the app's success fraction over ratio buckets
// starting in [from, to]. This delegates to the same metrics.SuccessRatio
// computation the figure runners use on their own trackers, so cross-check
// tests can demand bit-identical agreement.
func (m *Monitor) RateBetween(app shard.AppID, from, to time.Duration) float64 {
	return m.app(app).ratio.RateBetween(from, to)
}

// MinBucketBetween returns the app's worst per-bucket success fraction in
// [from, to].
func (m *Monitor) MinBucketBetween(app shard.AppID, from, to time.Duration) float64 {
	return m.app(app).ratio.MinBucketBetween(from, to)
}

// --- snapshots ---

// Interval is a half-open span of simulated time [From, To).
type Interval struct {
	From, To time.Duration
}

// ShardAvail is one shard's observed availability.
type ShardAvail struct {
	Shard     shard.ID
	OK, Total int64
	Rate      float64
}

// DomainAvail is one failure domain's observed availability.
type DomainAvail struct {
	Level     string
	Domain    string
	OK, Total int64
	Rate      float64
}

// AppStatus is the health snapshot of one application.
type AppStatus struct {
	App          shard.AppID
	OK, Total    int64
	Availability float64
	// Window5m/Window1h are trailing-window success rates; Burn5m/Burn1h
	// are the corresponding SLO burn rates ((1-rate)/(1-SLO): 1.0 burns
	// the error budget exactly at the sustainable pace).
	Window5m, Window1h float64
	Burn5m, Burn1h     float64
	// BudgetRemaining is the fraction of the total error budget still
	// unspent over the whole window (negative = overdrawn).
	BudgetRemaining float64
	WorstShards     []ShardAvail
	Domains         []DomainAvail
	Violations      []Interval

	ActiveMigrations []migrationInfo
	MigrationsOK     int64
	MigrationsFailed int64
	RoleChanges      int64
	MapVersion       int64
	MapPublishes     int64
	Deliveries       int64
	StaleDeliveries  int64
	MaxPropagation   time.Duration
}

// RegionStatus is the health snapshot of one cluster region.
type RegionStatus struct {
	Region      topology.RegionID
	Running     int64
	Starts      int64
	Stops       int64
	Unplanned   int64
	Maintenance int64
}

// Status is a point-in-time health snapshot.
type Status struct {
	At        time.Duration
	SLOTarget float64
	Apps      []AppStatus
	Regions   []RegionStatus
}

// Snapshot computes the current health picture. All slices are sorted so a
// snapshot of the same state always renders identically.
func (m *Monitor) Snapshot() *Status {
	now := m.now()
	st := &Status{At: now, SLOTarget: m.opts.SLOTarget}

	appIDs := make([]string, 0, len(m.apps))
	for id := range m.apps {
		appIDs = append(appIDs, string(id))
	}
	sort.Strings(appIDs)
	for _, id := range appIDs {
		st.Apps = append(st.Apps, m.appStatus(shard.AppID(id), now))
	}

	regions := append([]topology.RegionID(nil), m.regionOrder...)
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, id := range regions {
		r := m.regions[id]
		st.Regions = append(st.Regions, RegionStatus{
			Region:      id,
			Running:     r.running,
			Starts:      r.starts,
			Stops:       r.stops,
			Unplanned:   r.unplanned,
			Maintenance: r.maintenance,
		})
	}
	return st
}

func (m *Monitor) appStatus(id shard.AppID, now time.Duration) AppStatus {
	a := m.apps[id]
	slo := m.opts.SLOTarget
	out := AppStatus{
		App:              id,
		OK:               a.totals.ok,
		Total:            a.totals.total,
		Availability:     a.totals.rate(),
		Window5m:         a.ratio.RateBetween(now-5*time.Minute, now),
		Window1h:         a.ratio.RateBetween(now-time.Hour, now),
		MigrationsOK:     a.migOK,
		MigrationsFailed: a.migFail,
		RoleChanges:      a.roleChanges,
		MapVersion:       a.mapVersion,
		MapPublishes:     a.publishes,
		Deliveries:       a.deliveries,
		StaleDeliveries:  a.lost,
		MaxPropagation:   a.maxLag,
	}
	out.Burn5m = (1 - out.Window5m) / (1 - slo)
	out.Burn1h = (1 - out.Window1h) / (1 - slo)
	out.BudgetRemaining = 1.0
	if allowed := (1 - slo) * float64(a.totals.total); allowed > 0 {
		out.BudgetRemaining = 1 - float64(a.totals.total-a.totals.ok)/allowed
	}

	// Worst shards: lowest success rate first, ties by most failures then
	// by ID for determinism.
	shards := make([]ShardAvail, 0, len(a.perShard))
	for sid, c := range a.perShard {
		shards = append(shards, ShardAvail{Shard: sid, OK: c.ok, Total: c.total, Rate: c.rate()})
	}
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].Rate != shards[j].Rate {
			return shards[i].Rate < shards[j].Rate
		}
		fi, fj := shards[i].Total-shards[i].OK, shards[j].Total-shards[j].OK
		if fi != fj {
			return fi > fj
		}
		return shards[i].Shard < shards[j].Shard
	})
	if len(shards) > m.opts.WorstShards {
		shards = shards[:m.opts.WorstShards]
	}
	out.WorstShards = shards

	// Domain breakdown in level order region > datacenter > rack, domains
	// sorted within each level.
	for _, level := range []string{
		topology.LevelRegion.String(),
		topology.LevelDatacenter.String(),
		topology.LevelRack.String(),
	} {
		byDomain := a.perDomain[level]
		names := make([]string, 0, len(byDomain))
		for d := range byDomain {
			names = append(names, d)
		}
		sort.Strings(names)
		for _, d := range names {
			c := byDomain[d]
			out.Domains = append(out.Domains, DomainAvail{
				Level: level, Domain: d, OK: c.ok, Total: c.total, Rate: c.rate(),
			})
		}
	}

	// Violation intervals: ratio buckets below the SLO target, adjacent
	// buckets merged.
	curve := a.ratio.Curve()
	for _, p := range curve {
		if p.V >= slo {
			continue
		}
		from, to := p.T, p.T+m.opts.Bucket
		if n := len(out.Violations); n > 0 && out.Violations[n-1].To == from {
			out.Violations[n-1].To = to
		} else {
			out.Violations = append(out.Violations, Interval{From: from, To: to})
		}
	}

	// Active migrations sorted by shard ID.
	if len(a.active) > 0 {
		migs := make([]migrationInfo, 0, len(a.active))
		for _, mi := range a.active {
			migs = append(migs, mi)
		}
		sort.Slice(migs, func(i, j int) bool { return migs[i].Shard < migs[j].Shard })
		out.ActiveMigrations = migs
	}
	return out
}
