package shard

import (
	"cmp"
	"fmt"
	"slices"
)

// DeltaEntry is one changed shard in a Delta: the shard's complete new
// assignment list. Whole-entry granularity (rather than per-replica edits)
// keeps application order-independent and idempotent per shard, which is
// what lets consumers apply a delta's entries in any order.
type DeltaEntry struct {
	Shard       ID
	Assignments []Assignment
}

// Delta is a compact edit script between two consecutive shard-map
// versions: applying it to a map at FromVersion yields the map at
// ToVersion. Steady-state publication cost becomes O(changed entries)
// instead of the O(shards) copy a full-map publish pays, which is what
// makes frequent republication affordable at millions of shards
// (ROADMAP item 2).
//
// A Delta is a reusable buffer: Reset rewinds it in place and keeps the
// Changed and Removed backing arrays. The assignment lists it carries follow
// the Map rule — immutable once staged — so staging (Set, SetOne) allocates
// exactly one fresh list per changed entry, and Diff and ApplyDelta hand
// lists over without copying.
type Delta struct {
	App AppID
	// FromVersion is the map version this delta applies on top of;
	// ToVersion is the resulting version. Deltas chain: a consumer at
	// version N applies the N->N+1 delta; anything else falls back to a
	// full snapshot.
	FromVersion int64
	ToVersion   int64
	// Gen is the coordination epoch stamped on the resulting map, with the
	// same total-order semantics as Map.Gen.
	Gen int64
	// Changed holds added or reassigned shards with their new assignments.
	Changed []DeltaEntry
	// Removed lists shards absent from the target map.
	Removed []ID
}

// NewDelta returns an empty delta buffer for app.
func NewDelta(app AppID) *Delta { return &Delta{App: app} }

// Reset rewinds the delta in place for reuse, keeping the backing arrays:
// version bounds and generation are restamped, Changed and Removed empty.
// The lists the delta carried are released, not recycled. Returns d.
func (d *Delta) Reset(app AppID, from, to, gen int64) *Delta {
	d.App, d.FromVersion, d.ToVersion, d.Gen = app, from, to, gen
	clear(d.Changed)
	d.Changed = d.Changed[:0]
	d.Removed = d.Removed[:0]
	return d
}

// Len returns the number of edits (changed + removed entries).
func (d *Delta) Len() int { return len(d.Changed) + len(d.Removed) }

// put appends one changed entry carrying the list as, which it adopts.
func (d *Delta) put(s ID, as []Assignment) {
	d.Changed = append(d.Changed, DeltaEntry{Shard: s, Assignments: as})
}

// Set stages shard s's new assignment list as a fresh copy of as (the
// caller may keep mutating its slice). Staging the same shard twice records
// it twice; the last entry wins on apply, but publishers should coalesce
// (stage each shard at most once per delta) to keep deltas minimal.
func (d *Delta) Set(s ID, as []Assignment) {
	d.put(s, append(make([]Assignment, 0, len(as)), as...))
}

// SetOne stages shard s as a fresh single-replica assignment — the hot path
// for primary-only churn, with no intermediate slice.
func (d *Delta) SetOne(s ID, server ServerID, role Role) {
	d.put(s, []Assignment{{Server: server, Role: role}})
}

// Remove stages shard s for removal from the map.
func (d *Delta) Remove(s ID) { d.Removed = append(d.Removed, s) }

// ApproxBytes estimates the delta's wire size: shard/server ID bytes plus a
// small fixed per-record overhead. Map.ApproxBytes uses the same accounting,
// so delta and full-map sizes compare meaningfully even though neither is a
// real codec.
func (d *Delta) ApproxBytes() int64 {
	n := int64(32) // header: app/version bounds/gen
	for i := range d.Changed {
		e := &d.Changed[i]
		n += int64(len(e.Shard)) + 4
		for _, a := range e.Assignments {
			n += int64(len(a.Server)) + 5 // server id + role + framing
		}
	}
	for _, s := range d.Removed {
		n += int64(len(s)) + 4
	}
	return n
}

// ApproxBytes estimates the map's wire size under the same accounting as
// Delta.ApproxBytes.
func (m *Map) ApproxBytes() int64 {
	n := int64(32)
	for s, as := range m.Entries {
		n += int64(len(s)) + 4
		for _, a := range as {
			n += int64(len(a.Server)) + 5
		}
	}
	return n
}

// assignmentsEqual reports whether two assignment lists are identical
// including order (publication order is part of map identity: routing
// iterates replica lists in order).
func assignmentsEqual(a, b []Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff computes the delta that turns prev into m, reusing scratch's storage
// when non-nil. Changed entries carry m's own lists. Entries are emitted in sorted shard order so the result is
// deterministic regardless of map iteration order. Cost is O(|m| + |prev|)
// plus a sort of the changed set — publishers that already know their churn
// set should stage a Delta directly instead and skip the scan.
func (m *Map) Diff(prev *Map, scratch *Delta) *Delta {
	if prev == nil {
		panic("shard: Diff(nil) — publish a full map instead")
	}
	d := scratch
	if d == nil {
		d = NewDelta(m.App)
	}
	d.Reset(m.App, prev.Version, m.Version, m.Gen)
	for s, as := range m.Entries {
		if pas, ok := prev.Entries[s]; !ok || !assignmentsEqual(as, pas) {
			d.put(s, as)
		}
	}
	for s := range prev.Entries {
		if _, ok := m.Entries[s]; !ok {
			d.Remove(s)
		}
	}
	slices.SortFunc(d.Changed, func(a, b DeltaEntry) int { return cmp.Compare(a.Shard, b.Shard) })
	slices.Sort(d.Removed)
	return d
}

// ApplyDelta applies d to m's table in place, advancing it from
// d.FromVersion to d.ToVersion. m adopts the delta's lists, so applying a
// delta that changes only existing shards allocates nothing. It is the
// consumer-side counterpart of Diff: for any maps A, B with the same App,
// A.Clone() + ApplyDelta(B.Diff(A)) is deep-equal to B.
//
// The version must match exactly: a consumer holding any other version must
// resync from a full snapshot (the service discovery layer arranges that).
func (m *Map) ApplyDelta(d *Delta) error {
	if m.App != d.App {
		return fmt.Errorf("shard: delta for app %q applied to map of %q", d.App, m.App)
	}
	if m.Version != d.FromVersion {
		return fmt.Errorf("shard: delta %d->%d applied to map at version %d",
			d.FromVersion, d.ToVersion, m.Version)
	}
	for i := range d.Changed {
		e := &d.Changed[i]
		m.Entries[e.Shard] = e.Assignments
	}
	for _, s := range d.Removed {
		delete(m.Entries, s)
	}
	m.Version = d.ToVersion
	if d.Gen > 0 {
		m.Gen = d.Gen
	}
	return nil
}
