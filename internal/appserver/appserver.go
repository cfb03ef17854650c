// Package appserver implements the application-server side of Shard
// Manager: the SM library that is linked into application servers (§3.2)
// and the simple programming model of §3.3 — add_shard / drop_shard /
// change_role / prepare_add_shard / prepare_drop_shard — plus the
// request-forwarding machinery that makes graceful primary-replica
// migration drop zero requests (§4.3).
//
// A Host bridges the cluster manager and the application: whenever a
// container of the application's job starts, the Host spins up a Server
// (registering it on the network and creating its ephemeral liveness node
// in the coordination store); when the container stops, the Server dies
// with it. The orchestrator discovers server liveness through those
// ephemeral nodes, exactly as SM does with ZooKeeper.
package appserver

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/metrics"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// Application is the programming model implemented by application owners
// (Fig 11). The runtime invokes these callbacks; the application manages
// its own per-shard state.
type Application interface {
	// AddShard makes the server officially own the shard in the given
	// role and accept requests for it.
	AddShard(s shard.ID, role shard.Role)
	// DropShard releases the shard.
	DropShard(s shard.ID)
	// ChangeRole switches the shard's replica between primary and
	// secondary (demotion ahead of maintenance, promotion on failover).
	ChangeRole(s shard.ID, from, to shard.Role)
	// HandleRequest processes one client request for an owned shard and
	// returns the response payload or an error.
	HandleRequest(req *Request) (any, error)
}

// Preparer is optionally implemented by applications that need hooks during
// graceful migration (e.g. to transfer state). The runtime's forwarding
// works regardless.
type Preparer interface {
	PrepareAddShard(s shard.ID, currentOwner shard.ServerID, role shard.Role)
	PrepareDropShard(s shard.ID, newOwner shard.ServerID, role shard.Role)
}

// LoadReporter is optionally implemented by applications that report
// per-shard load for load balancing (§2.2.4). Servers without it report
// shard count only.
type LoadReporter interface {
	ShardLoad(s shard.ID) topology.Capacity
}

// Request is one client request routed to a server.
type Request struct {
	App   shard.AppID
	Shard shard.ID
	Key   string
	// Write marks primary-related requests that only the primary may
	// handle.
	Write bool
	// Forwarded marks requests relayed from the old primary during
	// migration (§4.3 step 1).
	Forwarded bool
	// Op and Payload carry application-specific data.
	Op      string
	Payload any
	// TraceSpan is the client request span this RPC belongs to (0 when
	// tracing is disabled); servers attach forwarding events to it.
	TraceSpan trace.SpanID
}

// Response is the outcome of one request.
type Response struct {
	OK      bool
	Err     string
	Payload any
	// Server that finally handled (or rejected) the request.
	Server shard.ServerID
	// Hops counts forwarding hops beyond the first delivery.
	Hops int
}

// Phase is the runtime state of one shard replica on one server. It is
// exported so observers (the runtime auditor) can reason about the §4.3
// protocol steps a replica is in.
type Phase int

// Replica phases, in rough lifecycle order.
const (
	// PhaseNone: zero value; a replica in the map never keeps it.
	PhaseNone Phase = iota
	// PhaseLoading: the replica is loading shard state (LoadTime) and
	// cannot serve yet.
	PhaseLoading
	// PhasePreparingAdd: loaded and ready to take over; serves only
	// forwarded requests.
	PhasePreparingAdd
	// PhaseActive: owns the shard; serves matching requests.
	PhaseActive
	// PhaseForwarding: handing off; forwards requests to the new owner.
	PhaseForwarding
)

// String returns the phase name used in reports and timelines.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseLoading:
		return "loading"
	case PhasePreparingAdd:
		return "preparing"
	case PhaseActive:
		return "active"
	case PhaseForwarding:
		return "forwarding"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

type replica struct {
	role      shard.Role
	phase     Phase
	forwardTo shard.ServerID
	// pendingActive marks a replica that must activate as soon as its
	// state load completes (AddShard arrived during/starting the load).
	pendingActive bool
	// loadGen guards stale load-completion timers.
	loadGen int
	// unconfirmed marks a primary restored from the persisted assignment
	// at start-up: that snapshot may be stale (assignment writes are
	// skipped while the coordination store is unavailable), so the replica
	// rejects writes until an authoritative orchestrator grant or sync
	// confirms the role. Reads still serve — the data is no worse than a
	// secondary's.
	unconfirmed bool
	// grantGen is the generation of the add_shard grant that installed the
	// replica (0 for ungenerationed grants). A SyncAssignment computed at
	// an older generation must not undo it: jitter can deliver a newer
	// migration's add_shard before the rejoin sync that predates it.
	grantGen int64
}

// tombstoneTTL is how long a server keeps forwarding requests for a shard
// after drop_shard; §4.3 step 5 says the old primary "keeps forwarding
// client requests ... and drops its replica when no more requests arrive".
const tombstoneTTL = 30 * time.Second

// Kernel-profiler attribution labels for server-side timers.
var (
	lbShardLoad        = sim.LabelFor("appserver", "shard_load")
	lbTombstoneGC      = sim.LabelFor("appserver", "tombstone_gc")
	lbServeDelay       = sim.LabelFor("appserver", "serve_delay")
	lbLivenessRetry    = sim.LabelFor("appserver", "liveness_retry")
	lbSessionReconnect = sim.LabelFor("appserver", "session_reconnect")
	lbFence            = sim.LabelFor("appserver", "fence")
)

// DefaultFenceDelay is how long after losing its coordination session the SM
// library takes to notice and self-fence (the client-side session-timeout
// detection). It must stay well under any orchestrator FailoverGrace /
// PromoteHold so a false-dead server stops serving its primaries before a
// replacement can be promoted.
const DefaultFenceDelay = 2 * time.Second

// Server is one application server instance (the SM library + the app).
type Server struct {
	ID     shard.ServerID
	App    shard.AppID
	Region topology.RegionID

	// LoadTime is how long a newly assigned replica takes to load shard
	// state before it can serve (0 = instant). Graceful migration hides
	// it — the new primary loads during prepare_add_shard while the old
	// one keeps serving; without graceful migration the shard is simply
	// down for this long on every move (the Fig 17 gap).
	LoadTime time.Duration

	loop *sim.Loop
	net  *rpcnet.Network
	dir  *Directory
	app  Application

	// serveDelay stalls every request by this much before processing — a
	// gray failure: the process is alive (liveness node intact, orchestrator
	// sees it healthy) but slow. Set by fault injection via SetServeDelay.
	serveDelay time.Duration

	replicas   map[shard.ID]*replica
	tombstones map[shard.ID]shard.ServerID

	// fenced marks lost-lease state: the server's coordination session
	// expired and no newer-generation sync has arrived, so its primary
	// replicas neither serve nor accept writes ("fenced" rejection). The
	// fencing token is fenceGen — the lost session's generation; only a
	// SyncAssignment with a strictly greater generation lifts the fence.
	fenced   bool
	fenceGen int64
	// grantGen is the highest generation seen in any grant or sync, kept
	// for observability and stale-grant rejection.
	grantGen int64

	// Stats.
	Handled   metrics.Counter
	ForwardTx metrics.Counter // requests this server forwarded away
	Rejected  metrics.Counter
}

// requestMetric counts one request outcome in the loop's labeled registry
// (a no-op when metrics are disabled). outcome is one of the fixed reject
// reasons, "ok", or "app_error" — never raw application error text, which
// would be an unbounded label.
func (s *Server) requestMetric(outcome string) {
	s.loop.Metrics().Counter("appserver_requests_total",
		"app", string(s.App), "outcome", outcome).Inc()
}

// opMetric counts one SM-library shard operation (add/drop/change_role/
// prepare_add/prepare_drop).
func (s *Server) opMetric(op string) {
	s.loop.Metrics().Counter("appserver_shard_ops_total",
		"app", string(s.App), "op", op).Inc()
}

// replicaMetric moves the live-replica gauge when a replica is created or
// deleted on this server.
func (s *Server) replicaMetric(delta float64) {
	s.loop.Metrics().Gauge("appserver_replicas", "app", string(s.App)).Add(delta)
}

// reject counts and replies with one of the fixed rejection reasons.
func (s *Server) reject(sid shard.ID, reply func(Response), errMsg string) {
	s.Rejected.Inc()
	s.requestMetric(errMsg)
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Rejected; fn != nil {
			fn(s.ID, sid, errMsg)
		}
	}
	reply(Response{Err: errMsg, Server: s.ID})
}

// Observer sees server-side ownership events across every server in a
// Directory. All callbacks fire synchronously inside existing events and
// must draw no randomness, so attaching one (the runtime auditor does)
// cannot perturb a seeded run. Any field may be nil.
type Observer struct {
	// ReplicaChanged fires after any replica state transition (add, prepare
	// add/drop, role change, load completion). peer is the forwarding target
	// while the replica forwards, else "".
	ReplicaChanged func(server shard.ServerID, s shard.ID, role shard.Role, phase Phase, peer shard.ServerID)
	// ReplicaDropped fires when drop_shard removes a replica; tombstone
	// reports whether a forwarding tombstone was left behind.
	ReplicaDropped func(server shard.ServerID, s shard.ID, tombstone bool)
	// Handled fires when a server executes a request locally, with the
	// phase the replica was in at execution time.
	Handled func(server shard.ServerID, s shard.ID, write, forwarded bool, phase Phase)
	// Rejected fires when a server turns a request away with one of the
	// fixed rejection reasons.
	Rejected func(server shard.ServerID, s shard.ID, reason string)
	// Fenced fires when a server enters (fenced=true) or leaves
	// (fenced=false) the lost-lease fenced state, with the generation the
	// transition happened at.
	Fenced func(server shard.ServerID, fenced bool, gen int64)
	// ReplicaConfirmed fires when a replica's confirmed flag changes:
	// false when start-up restores a primary from the (possibly stale)
	// persisted assignment, true when an authoritative grant confirms it.
	ReplicaConfirmed func(server shard.ServerID, s shard.ID, confirmed bool)
	// ServerRemoved fires when a server leaves the directory (its container
	// stopped): every replica it held died with the process.
	ServerRemoved func(server shard.ServerID)
}

// Directory resolves server IDs to live Server instances for the in-process
// RPC layer. One Directory serves a whole simulation.
type Directory struct {
	servers   map[shard.ServerID]*Server
	observers []Observer
}

// AddObserver registers an ownership-event observer with every server that
// resolves through this directory (append-only; observers cannot be
// removed).
func (d *Directory) AddObserver(o Observer) { d.observers = append(d.observers, o) }

// notifyReplica reports a replica's post-transition state to observers.
func (s *Server) notifyReplica(id shard.ID, r *replica) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaChanged; fn != nil {
			fn(s.ID, id, r.role, r.phase, r.forwardTo)
		}
	}
}

// notifyFenced reports a fence transition to observers.
func (s *Server) notifyFenced() {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Fenced; fn != nil {
			fn(s.ID, s.fenced, s.fenceGen)
		}
	}
}

// notifyConfirmed reports a replica's confirmed-flag change to observers.
func (s *Server) notifyConfirmed(id shard.ID, confirmed bool) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaConfirmed; fn != nil {
			fn(s.ID, id, confirmed)
		}
	}
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{servers: make(map[shard.ServerID]*Server)}
}

// Lookup returns the live server with the given ID, or nil.
func (d *Directory) Lookup(id shard.ServerID) *Server { return d.servers[id] }

// Register adds a server to the directory (Hosts do this automatically;
// exported for tests and hand-wired setups).
func (d *Directory) Register(s *Server) { d.servers[s.ID] = s }

// Remove deletes a server from the directory. Observers are told the server
// is gone: every replica it held died with the process, so ownership views
// must not keep counting them as live.
func (d *Directory) Remove(id shard.ServerID) {
	if _, ok := d.servers[id]; !ok {
		return
	}
	delete(d.servers, id)
	for i := range d.observers {
		if fn := d.observers[i].ServerRemoved; fn != nil {
			fn(id)
		}
	}
}

// Servers returns the number of live servers.
func (d *Directory) Servers() int { return len(d.servers) }

// NewServer constructs a server; Hosts normally do this.
func NewServer(loop *sim.Loop, net *rpcnet.Network, dir *Directory, app Application,
	appID shard.AppID, id shard.ServerID, region topology.RegionID) *Server {
	return &Server{
		ID:         id,
		App:        appID,
		Region:     region,
		loop:       loop,
		net:        net,
		dir:        dir,
		app:        app,
		replicas:   make(map[shard.ID]*replica),
		tombstones: make(map[shard.ID]shard.ServerID),
	}
}

// --- SM library API, invoked by the orchestrator (Fig 11) ---

// applyGrantGen screens one grant's fencing token. Generation 0 grants (the
// pre-epoch API, used directly by tests and hand-wired setups) always apply.
// A positive generation at or below the fence generation belongs to a lease
// the server already lost — the grant is stale and must be dropped.
func (s *Server) applyGrantGen(gen int64) bool {
	if gen > s.grantGen {
		s.grantGen = gen
	}
	if gen > 0 && gen <= s.fenceGen {
		s.loop.Metrics().Counter("appserver_stale_grants_total",
			"app", string(s.App)).Inc()
		return false
	}
	return true
}

// Fence puts the server into the fenced state at generation gen: primary
// replicas stop serving and reject everything with "fenced" until a
// SyncAssignment carrying a newer generation arrives. The SM library invokes
// this when it detects its coordination session expired (lost lease).
func (s *Server) Fence(gen int64) {
	if s.fenced && gen <= s.fenceGen {
		return
	}
	s.fenced = true
	if gen > s.fenceGen {
		s.fenceGen = gen
	}
	s.opMetric("fence")
	s.notifyFenced()
}

// Fenced reports whether the server is currently fenced.
func (s *Server) Fenced() bool { return s.fenced }

// FenceGen returns the generation the server last fenced at (0 if never).
func (s *Server) FenceGen() int64 { return s.fenceGen }

// AddShard gives the server official ownership of the shard. A replica that
// already prepared (or already served) activates immediately; a brand-new
// replica first loads shard state for LoadTime and rejects requests until
// done (step 3 of §4.3 when preceded by prepare_add_shard; a cold add
// otherwise).
func (s *Server) AddShard(id shard.ID, role shard.Role) {
	s.AddShardGen(id, role, 0)
}

// AddShardGen is AddShard carrying the grant's fencing generation; stale
// grants (gen at or below the fence generation) are dropped.
func (s *Server) AddShardGen(id shard.ID, role shard.Role, gen int64) {
	if !s.applyGrantGen(gen) {
		return
	}
	s.addShard(id, role, true)
	s.replicas[id].grantGen = gen
}

func (s *Server) addShard(id shard.ID, role shard.Role, confirmed bool) {
	r := s.replicas[id]
	if r == nil {
		r = &replica{}
		s.replicas[id] = r
		s.replicaMetric(1)
	}
	s.opMetric("add")
	r.role = role
	r.forwardTo = ""
	wasUnconfirmed := r.unconfirmed
	r.unconfirmed = !confirmed
	delete(s.tombstones, id)
	switch r.phase {
	case PhaseLoading:
		r.pendingActive = true
	case PhaseNone:
		if s.LoadTime > 0 {
			r.pendingActive = true
			s.startLoad(id, r)
		} else {
			r.phase = PhaseActive
		}
	default: // prepared, active, or forwarding: state already present
		r.phase = PhaseActive
	}
	if r.unconfirmed != wasUnconfirmed {
		s.notifyConfirmed(id, !r.unconfirmed)
	}
	s.notifyReplica(id, r)
	s.app.AddShard(id, role)
}

// startLoad begins the replica's state load; on completion it becomes
// active (if AddShard already arrived) or prepared.
func (s *Server) startLoad(id shard.ID, r *replica) {
	r.phase = PhaseLoading
	r.loadGen++
	gen := r.loadGen
	s.loop.AfterL(s.LoadTime, lbShardLoad, func() {
		if s.replicas[id] != r || r.loadGen != gen || r.phase != PhaseLoading {
			return
		}
		if r.pendingActive {
			r.pendingActive = false
			r.phase = PhaseActive
		} else {
			r.phase = PhasePreparingAdd
		}
		s.notifyReplica(id, r)
	})
}

// DropShard releases the shard. If the replica was forwarding, a tombstone
// keeps forwarding stragglers for tombstoneTTL (step 5 of §4.3).
func (s *Server) DropShard(id shard.ID) {
	r := s.replicas[id]
	if r == nil {
		return
	}
	if r.phase == PhaseForwarding && r.forwardTo != "" {
		to := r.forwardTo
		s.tombstones[id] = to
		s.loop.AfterL(tombstoneTTL, lbTombstoneGC, func() {
			if s.tombstones[id] == to {
				delete(s.tombstones, id)
			}
		})
	}
	delete(s.replicas, id)
	s.replicaMetric(-1)
	s.opMetric("drop")
	_, tomb := s.tombstones[id]
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaDropped; fn != nil {
			fn(s.ID, id, tomb)
		}
	}
	s.app.DropShard(id)
}

// ChangeRole changes the replica's role in place (§2.2.3; also used to
// demote primaries ahead of non-negotiable maintenance, §4.2).
func (s *Server) ChangeRole(id shard.ID, from, to shard.Role) error {
	return s.ChangeRoleGen(id, from, to, 0)
}

// ChangeRoleGen is ChangeRole carrying the grant's fencing generation; stale
// grants are dropped with an error.
func (s *Server) ChangeRoleGen(id shard.ID, from, to shard.Role, gen int64) error {
	if !s.applyGrantGen(gen) {
		return fmt.Errorf("appserver: stale role grant for %s (gen %d <= fence %d)", id, gen, s.fenceGen)
	}
	r := s.replicas[id]
	if r == nil {
		return fmt.Errorf("appserver: %s does not hold shard %s", s.ID, id)
	}
	if r.role != from {
		return fmt.Errorf("appserver: shard %s role is %v, not %v", id, r.role, from)
	}
	r.role = to
	if r.unconfirmed && gen > 0 {
		r.unconfirmed = false
		s.notifyConfirmed(id, true)
	}
	s.opMetric("change_role")
	s.notifyReplica(id, r)
	s.app.ChangeRole(id, from, to)
	return nil
}

// PrepareAddShard readies this server to take over the shard: it loads
// state (LoadTime) and then processes only requests forwarded from the
// current owner (step 1 of §4.3). The old primary keeps serving clients
// throughout, which is why the load is invisible to them.
func (s *Server) PrepareAddShard(id shard.ID, currentOwner shard.ServerID, role shard.Role) {
	s.PrepareAddShardGen(id, currentOwner, role, 0)
}

// PrepareAddShardGen is PrepareAddShard carrying the grant's fencing
// generation; stale grants are dropped.
func (s *Server) PrepareAddShardGen(id shard.ID, currentOwner shard.ServerID, role shard.Role, gen int64) {
	if !s.applyGrantGen(gen) {
		return
	}
	r := s.replicas[id]
	if r == nil {
		r = &replica{}
		s.replicas[id] = r
		s.replicaMetric(1)
	}
	s.opMetric("prepare_add")
	r.role = role
	if r.phase == PhaseNone && s.LoadTime > 0 {
		s.startLoad(id, r)
	} else if r.phase != PhaseLoading {
		r.phase = PhasePreparingAdd
	}
	s.notifyReplica(id, r)
	if p, ok := s.app.(Preparer); ok {
		p.PrepareAddShard(id, currentOwner, role)
	}
}

// PrepareDropShard tells this server that newOwner is taking over: from now
// on it forwards the shard's requests to newOwner (step 2 of §4.3).
func (s *Server) PrepareDropShard(id shard.ID, newOwner shard.ServerID, role shard.Role) {
	r := s.replicas[id]
	if r == nil {
		return
	}
	s.opMetric("prepare_drop")
	r.phase = PhaseForwarding
	r.forwardTo = newOwner
	s.notifyReplica(id, r)
	if p, ok := s.app.(Preparer); ok {
		p.PrepareDropShard(id, newOwner, role)
	}
}

// ResumeShard cancels a hand-off: a forwarding replica returns to active
// serving. The orchestrator issues it when a graceful migration aborts after
// its prepare_drop already executed on the old primary — without it the old
// primary would forward to a target that no longer holds the shard. No-op
// unless the replica is forwarding.
func (s *Server) ResumeShard(id shard.ID) { s.ResumeShardGen(id, 0) }

// ResumeShardGen is ResumeShard carrying the grant's fencing generation;
// stale grants are dropped.
func (s *Server) ResumeShardGen(id shard.ID, gen int64) {
	if !s.applyGrantGen(gen) {
		return
	}
	r := s.replicas[id]
	if r == nil || r.phase != PhaseForwarding {
		return
	}
	s.opMetric("resume")
	r.phase = PhaseActive
	r.forwardTo = ""
	s.notifyReplica(id, r)
}

// SyncAssignment reconciles this server's replica set against the
// orchestrator's authoritative view at generation gen — the anti-entropy
// step the orchestrator runs when a server rejoins (its liveness node
// reappeared after expiry or restart). A generation newer than the fence
// generation lifts the fence; an older one means the sync itself is stale
// and is ignored. Only settled (active-phase) replicas are corrected —
// replicas mid-migration (loading/preparing/forwarding) belong to the §4.3
// protocol and are left alone. Corrections: roles fixed in place,
// unconfirmed restores confirmed, active replicas absent from want dropped,
// and shards the orchestrator assigns that the server lost added cold.
//
// protect lists shards that an in-flight migration is handing to this server:
// the authoritative slots still name the old owner until the migration
// commits, so such replicas are neither dropped nor cold-added here — the
// migration's own add_shard grant settles them. Likewise a replica granted
// at a newer generation than the sync is left alone: the grant postdates the
// view the sync was computed from.
func (s *Server) SyncAssignment(want map[shard.ID]shard.Role, protect map[shard.ID]bool, gen int64) {
	if gen > 0 && gen <= s.fenceGen {
		s.loop.Metrics().Counter("appserver_stale_grants_total",
			"app", string(s.App)).Inc()
		return
	}
	if gen > s.grantGen {
		s.grantGen = gen
	}
	s.opMetric("sync")
	ids := make([]string, 0, len(s.replicas))
	for id := range s.replicas {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, sid := range ids {
		id := shard.ID(sid)
		r := s.replicas[id]
		if r.phase != PhaseActive || (gen > 0 && r.grantGen > gen) {
			continue
		}
		role, ok := want[id]
		if !ok {
			if !protect[id] {
				s.DropShard(id)
			}
			continue
		}
		if r.role != role {
			old := r.role
			r.role = role
			if r.unconfirmed {
				r.unconfirmed = false
				s.notifyConfirmed(id, true)
			}
			s.notifyReplica(id, r)
			s.app.ChangeRole(id, old, role)
		} else if r.unconfirmed {
			r.unconfirmed = false
			s.notifyConfirmed(id, true)
			s.notifyReplica(id, r)
		}
	}
	missing := make([]string, 0, len(want))
	for id := range want {
		if s.replicas[id] == nil {
			missing = append(missing, string(id))
		}
	}
	sort.Strings(missing)
	for _, sid := range missing {
		id := shard.ID(sid)
		s.addShard(id, want[id], true)
	}
	// Unfence last: the fence may only lift once the replica set matches the
	// authoritative assignment — lifting it first would momentarily revive
	// stale primaries the reconcile above is about to drop or demote.
	if s.fenced {
		s.fenced = false
		s.opMetric("unfence")
		s.notifyFenced()
	}
}

// Shards returns a snapshot of owned shards and their roles (all phases).
func (s *Server) Shards() map[shard.ID]shard.Role {
	out := make(map[shard.ID]shard.Role, len(s.replicas))
	for id, r := range s.replicas {
		out[id] = r.role
	}
	return out
}

// HoldsActive reports whether the server actively owns the shard.
func (s *Server) HoldsActive(id shard.ID) bool {
	r := s.replicas[id]
	return r != nil && r.phase == PhaseActive
}

// LoadReport returns per-shard load for the orchestrator's collection
// cycle. Applications implementing LoadReporter control the numbers;
// otherwise each shard reports shard_count=1.
func (s *Server) LoadReport() map[shard.ID]topology.Capacity {
	out := make(map[shard.ID]topology.Capacity, len(s.replicas))
	for id := range s.replicas {
		if lr, ok := s.app.(LoadReporter); ok {
			out[id] = lr.ShardLoad(id)
		} else {
			out[id] = topology.Capacity{topology.ResourceShardCount: 1}
		}
	}
	return out
}

// Serve processes one request, replying asynchronously (possibly after one
// or more forwarding hops). reply is invoked exactly once and must not be
// nil.
func (s *Server) Serve(req *Request, reply func(Response)) {
	if s.serveDelay > 0 {
		s.loop.AfterL(s.serveDelay, lbServeDelay, func() { s.serve(req, reply) })
		return
	}
	s.serve(req, reply)
}

// SetServeDelay sets the per-request gray-failure stall (0 restores normal
// service).
func (s *Server) SetServeDelay(d time.Duration) { s.serveDelay = d }

// ServeDelay returns the current gray-failure stall.
func (s *Server) ServeDelay() time.Duration { return s.serveDelay }

func (s *Server) serve(req *Request, reply func(Response)) {
	r := s.replicas[req.Shard]
	if r == nil {
		if to, ok := s.tombstones[req.Shard]; ok {
			s.forward(req, to, reply)
			return
		}
		s.reject(req.Shard, reply, "not-owner")
		return
	}
	switch r.phase {
	case PhaseActive:
		// Lost lease: a fenced primary serves nothing — the orchestrator
		// may already have promoted a replacement, and any response from
		// here could contradict it. An unconfirmed (restored-from-store)
		// primary only blocks writes: its data is no staler than a
		// secondary's, but write ownership needs an authoritative grant.
		if r.role == shard.RolePrimary && (s.fenced || (req.Write && r.unconfirmed)) {
			s.reject(req.Shard, reply, "fenced")
			return
		}
		if req.Write && r.role != shard.RolePrimary {
			s.reject(req.Shard, reply, "not-primary")
			return
		}
		s.handle(req, r.phase, reply)
	case PhaseLoading:
		s.reject(req.Shard, reply, "loading")
	case PhasePreparingAdd:
		if req.Forwarded {
			s.handle(req, r.phase, reply)
			return
		}
		s.reject(req.Shard, reply, "preparing")
	case PhaseForwarding:
		s.forward(req, r.forwardTo, reply)
	default:
		panic("appserver: unknown replica phase")
	}
}

func (s *Server) handle(req *Request, phase Phase, reply func(Response)) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Handled; fn != nil {
			fn(s.ID, req.Shard, req.Write, req.Forwarded, phase)
		}
	}
	payload, err := s.app.HandleRequest(req)
	if err != nil {
		s.Rejected.Inc()
		s.requestMetric("app_error")
		reply(Response{Err: err.Error(), Server: s.ID})
		return
	}
	s.Handled.Inc()
	s.requestMetric("ok")
	reply(Response{OK: true, Payload: payload, Server: s.ID})
}

// forward relays the request to the shard's new owner and relays the
// response back (one extra hop each way).
func (s *Server) forward(req *Request, to shard.ServerID, reply func(Response)) {
	if to == "" || to == s.ID {
		s.reject(req.Shard, reply, "forward-loop")
		return
	}
	s.ForwardTx.Inc()
	s.loop.Metrics().Counter("appserver_forwarded_total", "app", string(s.App)).Inc()
	if tr := s.loop.Tracer(); tr.Enabled() {
		tr.Event("appserver", "forward", req.TraceSpan,
			trace.String("from", string(s.ID)),
			trace.String("to", string(to)),
			trace.String("shard", string(req.Shard)))
	}
	fwd := *req
	fwd.Forwarded = true
	s.net.Send(s.Region, rpcnet.Endpoint(to), func() {
		target := s.dir.Lookup(to)
		if target == nil {
			reply(Response{Err: "forward-target-gone", Server: s.ID})
			return
		}
		target.Serve(&fwd, func(resp Response) {
			resp.Hops++
			// Relay the response back through this server's region.
			s.net.Send(target.Region, rpcnet.Endpoint(s.ID), func() {
				reply(resp)
			}, func() {
				// Original server died mid-relay; the client's
				// RPC times out and it retries.
				reply(Response{Err: "relay-lost", Server: s.ID, Hops: resp.Hops})
			})
		})
	}, func() {
		reply(Response{Err: "forward-failed", Server: s.ID})
	})
}

// --- Host: container lifecycle -> server lifecycle ---

// CoordPaths groups the coordination-store layout for one application.
type CoordPaths struct {
	// ServersPath is the parent of per-server ephemeral liveness nodes.
	ServersPath string
	// AssignPath is the parent of per-server persisted assignments.
	AssignPath string
}

// DefaultPaths returns the standard layout for an application.
func DefaultPaths(app shard.AppID) CoordPaths {
	return CoordPaths{
		ServersPath: "/apps/" + string(app) + "/servers",
		AssignPath:  "/apps/" + string(app) + "/assign",
	}
}

// EscapeID flattens a server ID (which may contain '/', e.g. "job/3") into
// a single coordination-store path segment.
func EscapeID(id shard.ServerID) string {
	b := []byte(string(id))
	for i := range b {
		if b[i] == '/' {
			b[i] = '~'
		}
	}
	return string(b)
}

// ServerNode returns the liveness node path for a server.
func (p CoordPaths) ServerNode(id shard.ServerID) string {
	return p.ServersPath + "/" + EscapeID(id)
}

// AssignNode returns the persisted-assignment node path for a server.
func (p CoordPaths) AssignNode(id shard.ServerID) string {
	return p.AssignPath + "/" + EscapeID(id)
}

// Host materializes application servers for the containers of one job in
// one region. It implements cluster.Listener.
type Host struct {
	loop    *sim.Loop
	net     *rpcnet.Network
	dir     *Directory
	store   *coord.Store
	fleet   *topology.Fleet
	appID   shard.AppID
	job     cluster.JobID
	factory func(*Server) Application
	paths   CoordPaths

	// FenceDelay is how long after losing its coordination session a server
	// waits before self-fencing (§4.3 safety: it must elapse before the
	// orchestrator's failover grace so a false-dead server stops serving as
	// primary strictly before a replacement can be promoted).
	FenceDelay time.Duration

	servers  map[shard.ServerID]*Server
	sessions map[shard.ServerID]*coord.Session
	machines map[shard.ServerID]topology.MachineID
}

// NewHost creates the host and prepares the coordination-store layout. The
// factory builds the per-server application instance.
func NewHost(loop *sim.Loop, net *rpcnet.Network, dir *Directory, store *coord.Store,
	fleet *topology.Fleet, appID shard.AppID, job cluster.JobID,
	factory func(*Server) Application) *Host {
	paths := DefaultPaths(appID)
	mustCreateAll(store, paths.ServersPath)
	mustCreateAll(store, paths.AssignPath)
	return &Host{
		loop:       loop,
		net:        net,
		dir:        dir,
		store:      store,
		fleet:      fleet,
		appID:      appID,
		job:        job,
		factory:    factory,
		paths:      paths,
		FenceDelay: DefaultFenceDelay,
		servers:    make(map[shard.ServerID]*Server),
		sessions:   make(map[shard.ServerID]*coord.Session),
		machines:   make(map[shard.ServerID]topology.MachineID),
	}
}

func mustCreateAll(store *coord.Store, path string) {
	if err := store.CreateAll(path, nil, nil); err != nil && !store.Exists(path) {
		panic(fmt.Sprintf("appserver: creating %s: %v", path, err))
	}
}

// Server returns the live server for an ID, or nil.
func (h *Host) Server(id shard.ServerID) *Server { return h.servers[id] }

// ServerIDs returns the IDs of all live servers under this host, sorted —
// fault injection iterates this, so the order must be deterministic.
func (h *Host) ServerIDs() []shard.ServerID {
	ids := make([]shard.ServerID, 0, len(h.servers))
	for id := range h.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LiveServers returns the number of live servers under this host.
func (h *Host) LiveServers() int { return len(h.servers) }

// ContainerStarted implements cluster.Listener: boot a server.
func (h *Host) ContainerStarted(c cluster.Container) {
	if c.Job != h.job {
		return
	}
	id := shard.ServerID(c.ID)
	if _, dup := h.servers[id]; dup {
		return
	}
	machine := h.fleet.Machine(c.Machine)
	if machine == nil {
		panic(fmt.Sprintf("appserver: container %s on unknown machine %s", c.ID, c.Machine))
	}
	srv := NewServer(h.loop, h.net, h.dir, nil, h.appID, id, machine.Region)
	srv.app = h.factory(srv)
	h.servers[id] = srv
	h.machines[id] = machine.ID
	h.dir.Register(srv)
	h.net.Register(rpcnet.Endpoint(id), machine.Region)

	// Liveness: ephemeral node, as the SM library does with ZooKeeper.
	sess := h.store.NewSession()
	h.sessions[id] = sess
	h.armFence(id, sess)
	path := h.paths.ServerNode(id)
	if h.store.Exists(path) {
		// Leftover from an earlier incarnation; replace it.
		_ = h.store.Delete(path, -1)
	}
	// The payload is the machine ID; the orchestrator resolves placement
	// metadata (region, datacenter, rack) from it.
	h.createLiveness(id, sess, []byte(machine.ID))

	// Start-up assignment: read persisted shard assignment directly from
	// the store, without the SM control plane (§3.2).
	h.restoreAssignment(srv)
}

// createLiveness publishes the server's ephemeral liveness node, retrying
// while the coordination service is unavailable (write-stall fault): a real
// SM library keeps reconnecting rather than crashing the container.
func (h *Host) createLiveness(id shard.ServerID, sess *coord.Session, payload []byte) {
	path := h.paths.ServerNode(id)
	err := h.store.Create(path, payload, sess)
	switch {
	case err == nil:
		return
	case errors.Is(err, coord.ErrUnavailable):
		h.loop.AfterL(livenessRetryDelay, lbLivenessRetry, func() {
			// Give up silently if the server died or reconnected with a
			// fresh session in the meantime.
			if h.servers[id] == nil || h.sessions[id] != sess {
				return
			}
			h.createLiveness(id, sess, payload)
		})
	case errors.Is(err, coord.ErrNodeExists):
		// Leftover from a racing earlier incarnation; replace it.
		_ = h.store.Delete(path, -1)
		h.createLiveness(id, sess, payload)
	default:
		panic(fmt.Sprintf("appserver: liveness node: %v", err))
	}
}

// livenessRetryDelay spaces liveness-publication retries while the
// coordination service rejects writes.
const livenessRetryDelay = 500 * time.Millisecond

// ExpireSession force-expires the coordination session of one live server —
// the classic ZooKeeper false-dead: the process is healthy but its ephemeral
// node vanishes, so the orchestrator begins failover. After reconnectAfter
// (0 = never) the server opens a fresh session and republishes its liveness
// node, as a real client would on reconnect.
func (h *Host) ExpireSession(id shard.ServerID, reconnectAfter time.Duration) bool {
	sess := h.sessions[id]
	if sess == nil {
		return false
	}
	sess.Expire()
	delete(h.sessions, id)
	if reconnectAfter > 0 {
		h.loop.AfterL(reconnectAfter, lbSessionReconnect, func() {
			if h.servers[id] == nil || h.sessions[id] != nil {
				return // died, or something else reconnected it
			}
			fresh := h.store.NewSession()
			h.sessions[id] = fresh
			h.armFence(id, fresh)
			h.createLiveness(id, fresh, []byte(h.machines[id]))
		})
	}
	return true
}

// armFence schedules self-fencing for a server when its coordination session
// expires: FenceDelay after the loss, the server stops serving primaries and
// rejects writes with a "fenced" error. The skip check consults the server's
// *current* session generation, not the grant stream — a false-dead server
// may legitimately receive new grants while the orchestrator still believes
// it alive, and those must not suppress the fence. Only a fresh session
// (reconnect) or an authoritative SyncAssignment lifts it.
func (h *Host) armFence(id shard.ServerID, sess *coord.Session) {
	gen := sess.Generation()
	sess.OnExpire(func() {
		h.loop.AfterL(h.FenceDelay, lbFence, func() {
			srv := h.servers[id]
			if srv == nil {
				return // container died; nothing to fence
			}
			if cur := h.sessions[id]; cur != nil && !cur.Closed() && cur.Generation() > gen {
				return // already reconnected with a fresh session
			}
			srv.Fence(gen)
		})
	})
}

// restoreAssignment loads the server's persisted shard list, if any.
// Restored primaries start unconfirmed: the persisted snapshot may be stale
// (assignment writes are skipped while the coordination store is
// unavailable), so write ownership waits for the orchestrator's rejoin sync.
func (h *Host) restoreAssignment(srv *Server) {
	data, _, err := h.store.Get(h.paths.AssignNode(srv.ID))
	if err != nil {
		return
	}
	for _, entry := range splitAssign(string(data)) {
		srv.addShard(entry.id, entry.role, entry.role != shard.RolePrimary)
	}
}

// ContainerStopping implements cluster.Listener: the process dies now.
func (h *Host) ContainerStopping(c cluster.Container, reason string) {
	if c.Job != h.job {
		return
	}
	id := shard.ServerID(c.ID)
	if _, ok := h.servers[id]; !ok {
		return
	}
	h.net.Unregister(rpcnet.Endpoint(id))
	h.dir.Remove(id)
	delete(h.servers, id)
	delete(h.machines, id)
	if sess := h.sessions[id]; sess != nil {
		sess.Expire()
		delete(h.sessions, id)
	}
}

// ContainerStopped implements cluster.Listener (no-op; work happens at
// stopping time).
func (h *Host) ContainerStopped(cluster.Container) {}

// --- persisted assignment encoding (tiny, line-based) ---

type assignEntry struct {
	id   shard.ID
	role shard.Role
}

// EncodeAssignment renders a server's shard set for persistence.
func EncodeAssignment(shards map[shard.ID]shard.Role) []byte {
	out := make([]byte, 0, len(shards)*16)
	// Deterministic order for stable store contents.
	ids := make([]string, 0, len(shards))
	for id := range shards {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, id...)
		out = append(out, ' ')
		if shards[shard.ID(id)] == shard.RolePrimary {
			out = append(out, 'p')
		} else {
			out = append(out, 's')
		}
		out = append(out, '\n')
	}
	return out
}

func splitAssign(s string) []assignEntry {
	var out []assignEntry
	for len(s) > 0 {
		nl := -1
		for i := 0; i < len(s); i++ {
			if s[i] == '\n' {
				nl = i
				break
			}
		}
		var line string
		if nl == -1 {
			line, s = s, ""
		} else {
			line, s = s[:nl], s[nl+1:]
		}
		if len(line) < 3 {
			continue
		}
		role := shard.RoleSecondary
		if line[len(line)-1] == 'p' {
			role = shard.RolePrimary
		}
		out = append(out, assignEntry{id: shard.ID(line[:len(line)-2]), role: role})
	}
	return out
}
