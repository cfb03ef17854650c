// Package shard defines the core data model shared across the Shard Manager
// reproduction: applications, shards, replica roles, shard-to-server
// assignments, versioned shard maps, and the app-defined keyspace.
//
// SM uses the app-key, app-sharding abstraction (§3.1): the application
// decides how its key space divides into shards (possibly unevenly, e.g.
// S0:[1,9], S1:[10,99], S2:[100,100000]) and SM never splits or merges
// shards. A Keyspace captures that app-owned mapping; both application
// clients and servers share it.
package shard

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// AppID names a sharded application.
type AppID string

// ID names one shard of an application.
type ID string

// ServerID names an application server (one container). It equals the
// cluster manager's container ID textually.
type ServerID string

// Role is a replica's role.
type Role int

// Replica roles (§2.2.3).
const (
	RolePrimary Role = iota
	RoleSecondary
)

// String returns "primary" or "secondary".
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleSecondary:
		return "secondary"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ReplicationStrategy classifies an application per §2.2.3.
type ReplicationStrategy int

// Replication strategies.
const (
	// PrimaryOnly: each shard has a single primary replica; SM guarantees
	// no two servers serve the same shard at once.
	PrimaryOnly ReplicationStrategy = iota
	// SecondaryOnly: each shard has multiple equal replicas.
	SecondaryOnly
	// PrimarySecondary: one SM-elected primary plus >= 1 secondaries.
	PrimarySecondary
)

// String returns the strategy name.
func (s ReplicationStrategy) String() string {
	switch s {
	case PrimaryOnly:
		return "primary-only"
	case SecondaryOnly:
		return "secondary-only"
	case PrimarySecondary:
		return "primary-secondary"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Assignment is one replica's placement: which server and in which role.
type Assignment struct {
	Server ServerID
	Role   Role
}

// Map is a versioned shard-to-server assignment for one application.
// Versions increase monotonically with every publication; the service
// discovery system disseminates maps to clients with a delay, so clients may
// briefly act on stale versions (which is exactly what the graceful
// migration protocol of §4.3 must tolerate).
//
// Assignment lists are immutable once published: every holder of a map —
// the discovery service, each subscriber, the deltas in flight between
// them — shares the same lists, so a list is replaced wholesale, never
// edited in place. Each holder owns only its Entries table.
type Map struct {
	App     AppID
	Version int64
	// Gen is the coordination epoch (fencing token) stamped at publish
	// time. Generations are drawn from the coord store's global epoch
	// counter, so they are totally ordered with session generations and
	// role grants: a consumer may safely discard any map whose Gen is
	// behind one it has already applied, and a server fenced at session
	// generation g trusts only grants with Gen > g.
	Gen     int64
	Entries map[ID][]Assignment
}

// NewMap returns an empty shard map for app.
func NewMap(app AppID) *Map {
	return &Map{App: app, Entries: make(map[ID][]Assignment)}
}

// Clone returns a copy of the map's table. The assignment lists are shared,
// not copied: they are immutable once published.
func (m *Map) Clone() *Map {
	return &Map{App: m.App, Version: m.Version, Gen: m.Gen, Entries: maps.Clone(m.Entries)}
}

// CloneInto copies m's table into dst, reusing dst's storage, so a
// subscriber that resyncs into the table it already owns allocates nothing
// at steady state (same shard set). Lists are shared as in Clone. A nil dst
// behaves like Clone. Returns dst.
func (m *Map) CloneInto(dst *Map) *Map {
	if dst == nil {
		return m.Clone()
	}
	dst.App, dst.Version, dst.Gen = m.App, m.Version, m.Gen
	if dst.Entries == nil {
		dst.Entries = make(map[ID][]Assignment, len(m.Entries))
	} else {
		clear(dst.Entries)
	}
	for s, as := range m.Entries {
		dst.Entries[s] = as
	}
	return dst
}

// Primary returns the server holding the shard's primary replica, if any.
func (m *Map) Primary(s ID) (ServerID, bool) {
	for _, a := range m.Entries[s] {
		if a.Role == RolePrimary {
			return a.Server, true
		}
	}
	return "", false
}

// Replicas returns all assignments of a shard (nil if unknown).
func (m *Map) Replicas(s ID) []Assignment { return m.Entries[s] }

// Servers returns the sorted distinct servers appearing in the map.
func (m *Map) Servers() []ServerID {
	set := make(map[ServerID]struct{})
	for _, as := range m.Entries {
		for _, a := range as {
			set[a.Server] = struct{}{}
		}
	}
	out := make([]ServerID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShardsOn returns the sorted shards that have a replica on server.
func (m *Map) ShardsOn(server ServerID) []ID {
	var out []ID
	for s, as := range m.Entries {
		for _, a := range as {
			if a.Server == server {
				out = append(out, s)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks map invariants: at most one primary per shard and no
// duplicate server within a shard's replica list.
func (m *Map) Validate() error {
	for s, as := range m.Entries {
		primaries := 0
		seen := make(map[ServerID]struct{}, len(as))
		for _, a := range as {
			if a.Role == RolePrimary {
				primaries++
			}
			if _, dup := seen[a.Server]; dup {
				return fmt.Errorf("shard %s: duplicate replica on server %s", s, a.Server)
			}
			seen[a.Server] = struct{}{}
		}
		if primaries > 1 {
			return fmt.Errorf("shard %s: %d primaries", s, primaries)
		}
	}
	return nil
}

// Range is a half-open key range [Start, End); End == "" means unbounded.
type Range struct {
	Start string
	End   string
}

// Contains reports whether key falls in the range.
func (r Range) Contains(key string) bool {
	if key < r.Start {
		return false
	}
	return r.End == "" || key < r.End
}

// Keyspace is the application-owned mapping from keys to shards: an ordered
// list of non-overlapping ranges. Because SM uses app-sharding, the
// application constructs the Keyspace and both clients and servers consult
// it; SM itself never changes it.
type Keyspace struct {
	shards []ID
	starts []string // starts[i] is the inclusive start key of shards[i]
}

// NewKeyspace builds a keyspace from ordered (shard, startKey) boundaries.
// The first start key must be "" (covers the smallest keys) and starts must
// be strictly increasing.
func NewKeyspace(shards []ID, starts []string) (*Keyspace, error) {
	if len(shards) == 0 || len(shards) != len(starts) {
		return nil, fmt.Errorf("shard: keyspace needs equal non-empty shards/starts, got %d/%d", len(shards), len(starts))
	}
	if starts[0] != "" {
		return nil, fmt.Errorf("shard: first start key must be empty, got %q", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("shard: start keys not increasing at %d (%q <= %q)", i, starts[i], starts[i-1])
		}
	}
	ks := &Keyspace{
		shards: append([]ID(nil), shards...),
		starts: append([]string(nil), starts...),
	}
	return ks, nil
}

// UniformKeyspace builds n equal hash-style shards named "<prefix>NNNN".
// Keys are mapped by FNV-1a hash bucketing, which emulates the common
// pattern of apps hashing keys into uniformly named shards while remaining
// an app-owned (not framework-owned) decision.
func UniformKeyspace(prefix string, n int) *Keyspace {
	if n <= 0 {
		panic(fmt.Sprintf("shard: UniformKeyspace(%d)", n))
	}
	shards := make([]ID, n)
	for i := range shards {
		shards[i] = ID(fmt.Sprintf("%s%04d", prefix, i))
	}
	return &Keyspace{shards: shards} // nil starts => hash mode
}

// ShardFor returns the shard owning key.
func (k *Keyspace) ShardFor(key string) ID {
	if k.starts == nil {
		return k.shards[int(fnv1a(key)%uint64(len(k.shards)))]
	}
	// Binary search for the last start <= key.
	idx := sort.Search(len(k.starts), func(i int) bool { return k.starts[i] > key })
	return k.shards[idx-1] // idx >= 1 because starts[0] == ""
}

// Shards returns the shard IDs in order.
func (k *Keyspace) Shards() []ID {
	out := make([]ID, len(k.shards))
	copy(out, k.shards)
	return out
}

// Len returns the number of shards.
func (k *Keyspace) Len() int { return len(k.shards) }

// RangeOf returns the key range of shard s, or false for hash-mode
// keyspaces or unknown shards. Supporting range queries (e.g. the prefix
// scans that Laser relies on, §3.1) requires this key locality.
func (k *Keyspace) RangeOf(s ID) (Range, bool) {
	if k.starts == nil {
		return Range{}, false
	}
	for i, id := range k.shards {
		if id == s {
			r := Range{Start: k.starts[i]}
			if i+1 < len(k.starts) {
				r.End = k.starts[i+1]
			}
			return r, true
		}
	}
	return Range{}, false
}

// ShardsForPrefix returns the shards whose ranges may contain keys with the
// given prefix, in keyspace order. For hash-mode keyspaces every shard may
// contain such keys (locality is destroyed — the Slicer UUID-key downside
// discussed in §3.1), so all shards are returned.
func (k *Keyspace) ShardsForPrefix(prefix string) []ID {
	if k.starts == nil || prefix == "" {
		return k.Shards()
	}
	var out []ID
	hi := prefixUpperBound(prefix)
	for i, id := range k.shards {
		start := k.starts[i]
		end := ""
		if i+1 < len(k.starts) {
			end = k.starts[i+1]
		}
		// Overlaps [prefix, hi)?
		if end != "" && end <= prefix {
			continue
		}
		if hi != "" && start >= hi {
			continue
		}
		out = append(out, id)
	}
	return out
}

// prefixUpperBound returns the smallest string greater than every string
// with the given prefix, or "" if none exists.
func prefixUpperBound(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// FormatAssignments renders assignments compactly for logs and smctl.
func FormatAssignments(as []Assignment) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = fmt.Sprintf("%s(%s)", a.Server, a.Role)
	}
	return strings.Join(parts, ",")
}
