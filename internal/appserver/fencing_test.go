package appserver

import (
	"testing"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/shard"
)

// fencedHost builds a one-container host world and returns the host, its
// coordination store, and the single live server holding sh1 as primary.
func fencedHost(t *testing.T) (*testEnv, *Host, *coord.Store, *Server) {
	t.Helper()
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	mgr.CreateJob("job", "app", 1)
	env.loop.RunFor(time.Minute)
	id := host.ServerIDs()[0]
	srv := host.Server(id)
	if srv == nil {
		t.Fatal("server not started")
	}
	srv.AddShard("sh1", shard.RolePrimary)
	return env, host, store, srv
}

// TestFenceOnSessionExpiryBeforeFailoverGrace is the lease-expiry half of
// the dual-primary fix: a primary whose coordination session expires must
// self-fence within DefaultFenceDelay — well before any failover grace the
// orchestrator uses (the torture sweep runs 10s, production defaults 30s) —
// so by the time a successor can be promoted, the false-dead server has
// provably stopped serving.
func TestFenceOnSessionExpiryBeforeFailoverGrace(t *testing.T) {
	env, host, _, srv := fencedHost(t)
	id := srv.ID

	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write before expiry rejected: %+v", resp)
	}

	// Expire the session; the process stays alive (false-dead) and would
	// keep serving forever without self-fencing.
	if !host.ExpireSession(id, time.Minute) {
		t.Fatal("ExpireSession returned false")
	}
	if srv.Fenced() {
		t.Fatal("server fenced instantly; the fence must wait FenceDelay")
	}
	env.loop.RunFor(DefaultFenceDelay + 100*time.Millisecond)
	if !srv.Fenced() {
		t.Fatalf("server not fenced %v after session expiry", DefaultFenceDelay)
	}
	resp = serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if resp.OK || resp.Err != "fenced" {
		t.Fatalf("write on fenced primary = %+v, want fenced rejection", resp)
	}
	// The fence must land before any plausible failover grace: total elapsed
	// since expiry is ~2s against the 10s the torture worlds use.
	if DefaultFenceDelay >= 10*time.Second {
		t.Fatalf("DefaultFenceDelay = %v; must be far below failover grace", DefaultFenceDelay)
	}
}

// TestSyncAssignmentLiftsFence proves only an authoritative sync unfences:
// the orchestrator reconciles the rejoined server's replica set at a fresh
// generation, after which the primary serves again.
func TestSyncAssignmentLiftsFence(t *testing.T) {
	env, host, store, srv := fencedHost(t)
	host.ExpireSession(srv.ID, time.Minute)
	env.loop.RunFor(DefaultFenceDelay + 100*time.Millisecond)
	if !srv.Fenced() {
		t.Fatal("server not fenced after expiry")
	}

	// A grant from before the fence (stale generation) must not unfence or
	// apply: the lease it rode on is already lost.
	if err := srv.ChangeRoleGen("sh1", shard.RolePrimary, shard.RoleSecondary, srv.FenceGen()); err == nil {
		t.Fatal("stale role grant accepted on fenced server")
	}

	gen := store.NextEpoch()
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh1": shard.RolePrimary}, nil, gen)
	if srv.Fenced() {
		t.Fatal("authoritative sync did not lift the fence")
	}
	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write after sync rejected: %+v", resp)
	}
}

// TestReconnectedSessionDisarmsStaleFence pins the fence-arming race: the
// fence timer of an expired session must not fire after the server already
// reconnected with a fresh session (the new lease is live; fencing it would
// be a spurious outage).
func TestReconnectedSessionDisarmsStaleFence(t *testing.T) {
	env, host, _, srv := fencedHost(t)
	// Reconnect after 1s, well inside the 2s fence delay.
	host.ExpireSession(srv.ID, time.Second)
	env.loop.RunFor(DefaultFenceDelay + time.Second)
	if srv.Fenced() {
		t.Fatal("fence fired for a session that already reconnected")
	}
	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write after reconnect rejected: %+v", resp)
	}
}

// TestSyncAssignmentKeepsNewerGrant pins the rejoin race of a rolling
// upgrade: the orchestrator computes a rejoined server's wanted set at
// generation g, but a migration's add_shard at g+1 can overtake that sync in
// flight. The sync predates the grant, so it must not drop the replica; a
// replica granted before the sync that the sync omits is still dropped.
func TestSyncAssignmentKeepsNewerGrant(t *testing.T) {
	_, _, store, srv := fencedHost(t)
	old := store.NextEpoch()
	srv.AddShardGen("sh-old", shard.RoleSecondary, old)
	g := store.NextEpoch()
	srv.AddShardGen("sh-new", shard.RoleSecondary, store.NextEpoch())
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh1": shard.RolePrimary}, nil, g)
	if !srv.HoldsActive("sh-new") {
		t.Fatal("sync at g dropped a replica granted at g+1")
	}
	if _, ok := srv.Shards()["sh-old"]; ok {
		t.Fatal("sync kept a replica granted before it that it does not want")
	}
	if !srv.HoldsActive("sh1") {
		t.Fatal("sync dropped a wanted replica")
	}
}
