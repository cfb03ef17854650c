package shard

import (
	"fmt"
	"math/rand"
	"testing"
)

func mapsDeepEqual(a, b *Map) error {
	if a.App != b.App || a.Version != b.Version || a.Gen != b.Gen {
		return fmt.Errorf("header mismatch: %s/v%d/g%d vs %s/v%d/g%d",
			a.App, a.Version, a.Gen, b.App, b.Version, b.Gen)
	}
	if len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("entry count %d vs %d", len(a.Entries), len(b.Entries))
	}
	for s, as := range a.Entries {
		bs, ok := b.Entries[s]
		if !ok {
			return fmt.Errorf("shard %s missing", s)
		}
		if !assignmentsEqual(as, bs) {
			return fmt.Errorf("shard %s: %v vs %v", s, as, bs)
		}
	}
	return nil
}

func TestDiffApplyRoundTrip(t *testing.T) {
	prev := NewMap("app")
	prev.Version, prev.Gen = 3, 7
	prev.Entries["s0"] = []Assignment{{Server: "a", Role: RolePrimary}}
	prev.Entries["s1"] = []Assignment{{Server: "b", Role: RolePrimary}, {Server: "c", Role: RoleSecondary}}
	prev.Entries["s2"] = []Assignment{{Server: "c", Role: RolePrimary}}

	next := prev.Clone()
	next.Version, next.Gen = 4, 9
	next.Entries["s0"] = []Assignment{{Server: "d", Role: RolePrimary}}   // reassigned
	next.Entries["s3"] = []Assignment{{Server: "a", Role: RoleSecondary}} // added
	delete(next.Entries, "s2")                                            // removed
	next.Entries["s1"] = append([]Assignment(nil), prev.Entries["s1"]...) // unchanged

	d := next.Diff(prev, nil)
	if d.FromVersion != 3 || d.ToVersion != 4 || d.Gen != 9 {
		t.Fatalf("delta header %+v", d)
	}
	if len(d.Changed) != 2 || len(d.Removed) != 1 {
		t.Fatalf("delta size: %d changed, %d removed", len(d.Changed), len(d.Removed))
	}
	// Deterministic sorted order.
	if d.Changed[0].Shard != "s0" || d.Changed[1].Shard != "s3" || d.Removed[0] != "s2" {
		t.Fatalf("delta order: %+v", d)
	}

	got := prev.Clone()
	if err := got.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if err := mapsDeepEqual(got, next); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaVersionAndAppChecks(t *testing.T) {
	m := NewMap("app")
	m.Version = 5
	d := NewDelta("app").Reset("app", 4, 5, 0)
	if err := m.ApplyDelta(d); err == nil {
		t.Fatal("version-mismatched delta accepted")
	}
	d.Reset("other", 5, 6, 0)
	if err := m.ApplyDelta(d); err == nil {
		t.Fatal("wrong-app delta accepted")
	}
}

func TestDeltaSetCopiesAssignments(t *testing.T) {
	d := NewDelta("app")
	as := []Assignment{{Server: "a", Role: RolePrimary}}
	d.Set("s0", as)
	as[0].Server = "mutated"
	if d.Changed[0].Assignments[0].Server != "a" {
		t.Fatal("Set aliased the caller's slice")
	}
}

// TestPublishedListsNeverMutated pins the immutable-list rule end to end:
// once a list has travelled through Diff or staging into a map, neither
// restaging the delta buffer nor applying later deltas rewrites it, so every
// holder of an older map keeps seeing exactly what was published.
func TestPublishedListsNeverMutated(t *testing.T) {
	pub := NewMap("app")
	pub.Version = 1
	pub.Entries["s0"] = []Assignment{{Server: "a", Role: RolePrimary}}
	pub.Entries["s1"] = []Assignment{{Server: "b", Role: RolePrimary}}
	follower := pub.Clone()
	old := follower.Clone() // an older holder sharing every list

	d := NewDelta("app").Reset("app", 1, 2, 0)
	d.SetOne("s0", "c", RolePrimary)
	if err := follower.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	staged := follower.Entries["s0"]
	// Restage the same buffer for the next version.
	d.Reset("app", 2, 3, 0)
	d.SetOne("s0", "d", RolePrimary)
	d.Set("s1", []Assignment{{Server: "e", Role: RolePrimary}})
	if staged[0].Server != "c" {
		t.Fatalf("restaging rewrote a published list: %v", staged)
	}
	if err := follower.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if staged[0].Server != "c" || old.Entries["s0"][0].Server != "a" || old.Entries["s1"][0].Server != "b" {
		t.Fatalf("applying a delta rewrote a shared list: staged=%v old=%v", staged, old.Entries)
	}

	// Diff hands the new map's lists over rather than copying them.
	next := follower.Clone()
	next.Version = 4
	next.Entries["s1"] = []Assignment{{Server: "f", Role: RolePrimary}}
	dd := next.Diff(follower, nil)
	if len(dd.Changed) != 1 || &dd.Changed[0].Assignments[0] != &next.Entries["s1"][0] {
		t.Fatalf("Diff copied a list: %+v", dd.Changed)
	}
}

// TestDeltaApplyEquivalenceRandomChurn is the acceptance property test:
// across randomized churn scripts, a follower that applies every delta in
// order stays deep-equal to the publisher's full map.
func TestDeltaApplyEquivalenceRandomChurn(t *testing.T) {
	const (
		seeds    = 8
		shards   = 300
		versions = 60
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]ServerID, 20)
		for i := range servers {
			servers[i] = ServerID(fmt.Sprintf("srv%02d", i))
		}
		pub := NewMap("churn")
		pub.Version, pub.Gen = 1, 1
		for i := 0; i < shards; i++ {
			pub.Entries[ID(fmt.Sprintf("s%04d", i))] = []Assignment{
				{Server: servers[rng.Intn(len(servers))], Role: RolePrimary},
			}
		}
		follower := pub.Clone()
		var scratch *Delta
		for v := 0; v < versions; v++ {
			prev := pub.Clone() // publisher's last published state
			// Random churn: reassigns, replica-count changes, removals, adds.
			for n := rng.Intn(20); n >= 0; n-- {
				s := ID(fmt.Sprintf("s%04d", rng.Intn(shards)))
				switch rng.Intn(5) {
				case 0:
					delete(pub.Entries, s)
				case 1:
					pub.Entries[s] = []Assignment{
						{Server: servers[rng.Intn(len(servers))], Role: RolePrimary},
						{Server: servers[rng.Intn(len(servers))], Role: RoleSecondary},
					}
				default:
					pub.Entries[s] = []Assignment{
						{Server: servers[rng.Intn(len(servers))], Role: RolePrimary},
					}
				}
			}
			pub.Version++
			pub.Gen++
			scratch = pub.Diff(prev, scratch)
			if err := follower.ApplyDelta(scratch); err != nil {
				t.Fatalf("seed %d v%d: %v", seed, v, err)
			}
			if err := mapsDeepEqual(follower, pub); err != nil {
				t.Fatalf("seed %d v%d: follower diverged: %v", seed, v, err)
			}
		}
	}
}

// TestDeltaStagingSteadyStateAllocs pins the staging cost: once the delta
// buffer and the target map have warmed up, staging and applying a delta
// allocates exactly one list per changed entry and nothing else.
func TestDeltaStagingSteadyStateAllocs(t *testing.T) {
	const n = 64
	m := NewMap("app")
	m.Version = 1
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("s%04d", i))
		m.Entries[ids[i]] = []Assignment{{Server: "a", Role: RolePrimary}}
	}
	d := NewDelta("app")
	// Warm up the delta buffer once.
	d.Reset("app", 1, 2, 0)
	for _, s := range ids {
		d.SetOne(s, "b", RolePrimary)
	}
	if err := m.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	version := int64(2)
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset("app", version, version+1, 0)
		for _, s := range ids {
			d.SetOne(s, "c", RolePrimary)
		}
		if err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		version++
	})
	if allocs != n {
		t.Fatalf("steady-state delta stage+apply allocates %.1f/run, want %d (one list per changed entry)", allocs, n)
	}
}

func TestApproxBytesScalesWithEdits(t *testing.T) {
	m := NewMap("app")
	for i := 0; i < 1000; i++ {
		m.Entries[ID(fmt.Sprintf("s%05d", i))] = []Assignment{{Server: "srv-00001", Role: RolePrimary}}
	}
	d := NewDelta("app")
	d.SetOne("s00000", "srv-00002", RolePrimary)
	if fb, db := m.ApproxBytes(), d.ApproxBytes(); db*10 >= fb {
		t.Fatalf("delta bytes %d not small vs full %d", db, fb)
	}
}
