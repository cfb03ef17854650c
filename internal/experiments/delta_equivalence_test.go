package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// runDeltaEquivalenceWorld builds a small deployment, drives deterministic
// client traffic through shard-map churn (a drain moves primaries mid-run),
// and returns a rendering of every final routing Result in completion order.
func runDeltaEquivalenceWorld(t *testing.T, seed uint64) []string {
	t.Helper()
	const shards = 24
	cfg := orchestrator.Config{
		App:      "deltakv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(shards, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		GracefulMigration: true,
		FailoverGrace:     10 * time.Second,
		AllocInterval:     15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: seed,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	ks := KeyspaceFor(shards)
	opts := routing.DefaultOptions()
	var results []string
	record := func(region string) func(routing.Result) {
		return func(r routing.Result) {
			results = append(results, fmt.Sprintf(
				"%s t=%d ok=%v err=%s srv=%s shard=%s att=%d hops=%d lat=%d v=%d",
				region, d.Loop.Now(), r.OK, r.Err, r.Server, r.Shard,
				r.Attempts, r.Hops, r.Latency, r.MapVersion))
		}
	}
	clients := map[string]*routing.Client{
		"west": d.NewClient("west", ks, opts),
		"east": d.NewClient("east", ks, opts),
	}
	for region, c := range clients {
		c.OnResult(record(region))
	}
	d.Loop.RunFor(5 * time.Second) // let the start-up catch-up land

	// Deterministic traffic: every 500ms each client hits a rotating shard,
	// alternating reads and writes.
	i := 0
	d.Loop.Every(500*time.Millisecond, func() {
		key := KeyForShard(i % shards)
		clients["west"].Do(key, i%2 == 0, "op", i, func(routing.Result) {})
		clients["east"].Do(key, i%3 == 0, "op", i, func(routing.Result) {})
		i++
	})

	// Churn the map mid-run: drain the primary of s00000 so migrations
	// republish while traffic is in flight.
	d.Loop.RunFor(10 * time.Second)
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("s00000 has no primary")
	}
	d.Orch.Drain(victim, nil)
	d.Loop.RunFor(4 * time.Minute)
	return results
}

// TestDeltaPublishRoutingOutcomesIdentical is the propagation-path
// equivalence gate: every final routing Result (outcome, server, attempts,
// latency, map version, completion instant) of seeds 3 and 11 is
// byte-identical to the goldens recorded from the full-map-copy propagation
// that preceded the delta chain — the delta chain changes publication cost,
// not behavior.
func TestDeltaPublishRoutingOutcomesIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		want, err := os.ReadFile(fmt.Sprintf("testdata/routing_outcomes_seed%d.golden", seed))
		if err != nil {
			t.Fatal(err)
		}
		got := runDeltaEquivalenceWorld(t, seed)
		if len(got) == 0 {
			t.Fatalf("seed %d: no results recorded", seed)
		}
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		if len(got) != len(wantLines) {
			t.Fatalf("seed %d: %d results vs %d in the golden", seed, len(got), len(wantLines))
		}
		for i := range got {
			if got[i] != wantLines[i] {
				t.Fatalf("seed %d: result %d differs:\ngolden: %s\ngot:    %s",
					seed, i, wantLines[i], got[i])
			}
		}
	}
}

// TestDeltaPublishActuallyPublishesDeltas guards against the equivalence test
// passing vacuously: after the bootstrap, the orchestrator's map updates must
// travel as deltas (discovery_delta_publishes_total > 0).
func TestDeltaPublishActuallyPublishesDeltas(t *testing.T) {
	cfg := orchestrator.Config{
		App:      "deltakv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(8, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		AllocInterval: 15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Health: healthmon.New(healthmon.Options{}),
		Seed:   1,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Force extra publishes past the initial snapshot.
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("no primary")
	}
	d.Orch.Drain(victim, nil)
	d.Loop.RunFor(2 * time.Minute)
	n := d.Health.Registry().Counter("discovery_delta_publishes_total", "app", "deltakv").Value()
	if n == 0 {
		t.Fatal("no delta publishes recorded")
	}
}
