package controlplane

import (
	"fmt"
	"time"

	"shardmanager/internal/discovery"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// lbFlush attributes partition publication waves in the kernel profiler.
var lbFlush = sim.LabelFor("controlplane", "partition_flush")

// ShardRouter maps an application's global shard index to the partition that
// owns it, mirroring the contiguous near-equal split RegisterApp performs
// (chunk): partition i owns chunk(total, n, i) consecutive shards. This is
// the frontend-side counterpart of split — the piece a client library needs
// to find which mini-SM to ask about a shard.
type ShardRouter struct {
	app    shard.AppID
	total  int
	parts  int
	base   int // shards per partition before remainder spread
	rem    int // first rem partitions hold base+1
	bound  int // global index where base+1-sized partitions end
	starts []int
}

// NewShardRouter builds the router for an app split into parts partitions of
// totalShards, matching RegisterApp's chunking.
func NewShardRouter(app shard.AppID, totalShards, parts int) *ShardRouter {
	if parts <= 0 || totalShards < 0 {
		panic("controlplane: NewShardRouter needs parts > 0 and shards >= 0")
	}
	r := &ShardRouter{
		app:   app,
		total: totalShards,
		parts: parts,
		base:  totalShards / parts,
		rem:   totalShards % parts,
	}
	r.bound = r.rem * (r.base + 1)
	r.starts = make([]int, parts+1)
	for i := 0; i < parts; i++ {
		r.starts[i+1] = r.starts[i] + chunk(totalShards, parts, i)
	}
	return r
}

// Partitions returns the partition count.
func (r *ShardRouter) Partitions() int { return r.parts }

// PartitionOf returns the partition owning global shard index idx, in O(1).
func (r *ShardRouter) PartitionOf(idx int) int {
	if idx < 0 || idx >= r.total {
		panic(fmt.Sprintf("controlplane: shard index %d out of [0,%d)", idx, r.total))
	}
	if idx < r.bound {
		return idx / (r.base + 1)
	}
	return r.rem + (idx-r.bound)/r.base
}

// Range returns the half-open global index range [lo, hi) partition p owns.
func (r *ShardRouter) Range(p int) (lo, hi int) {
	if p < 0 || p >= r.parts {
		panic(fmt.Sprintf("controlplane: partition %d out of [0,%d)", p, r.parts))
	}
	return r.starts[p], r.starts[p+1]
}

// PartitionApp returns the discovery app ID a partition publishes under:
// each partition is its own publication stream ("app/pNNN"), so mini-SMs
// publish independently and clients subscribe only to partitions they touch.
func (r *ShardRouter) PartitionApp(p int) shard.AppID {
	if p < 0 || p >= r.parts {
		panic(fmt.Sprintf("controlplane: partition %d out of [0,%d)", p, r.parts))
	}
	return shard.AppID(fmt.Sprintf("%s/p%03d", r.app, p))
}

// PublisherStats accumulate one partition publisher's publication costs —
// the raw material for BENCH_controlplane.json.
type PublisherStats struct {
	// Deltas counts flushes published as deltas (every flush after the
	// bootstrap).
	Deltas int64
	// DeltaBytes is their approximate wire size (shard.Delta.ApproxBytes).
	DeltaBytes int64
	// ChangedEntries counts staged edits across all flushes.
	ChangedEntries int64
}

// PartitionPublisher publishes one partition's shard map to discovery.
// Edits are staged between flushes; Flush stamps a new version and
// publishes exactly one update, so steady-state publication cost is
// proportional to churn, not partition size. The first flush publishes the
// initial map as the bootstrap snapshot; every later flush publishes the
// staged delta. The publisher keeps no copy of the map: discovery's current
// map is the authoritative one.
type PartitionPublisher struct {
	disc    *discovery.Service
	app     shard.AppID
	initial *shard.Map // the bootstrap map, until the first Flush publishes it
	version int64      // last flushed version
	staged  *shard.Delta

	Stats PublisherStats
}

// NewPartitionPublisher wraps one partition's publication stream. initial is
// adopted (not copied) as the bootstrap map; its version must be 0 — the
// first Flush publishes it as version 1.
func NewPartitionPublisher(disc *discovery.Service, app shard.AppID, initial *shard.Map) *PartitionPublisher {
	if initial == nil || initial.App != app {
		panic("controlplane: NewPartitionPublisher needs an initial map for app")
	}
	if initial.Version != 0 {
		panic("controlplane: initial map must be unversioned (Flush assigns versions)")
	}
	return &PartitionPublisher{
		disc:    disc,
		app:     app,
		initial: initial,
		staged:  shard.NewDelta(app),
	}
}

// Version returns the last flushed map version (0 before the first Flush).
func (p *PartitionPublisher) Version() int64 { return p.version }

// SetOne stages a single-replica reassignment of shard s — the bulk of
// steady-state control-plane churn.
func (p *PartitionPublisher) SetOne(s shard.ID, server shard.ServerID, role shard.Role) {
	p.staged.SetOne(s, server, role)
}

// Set stages shard s's full new assignment list (copied).
func (p *PartitionPublisher) Set(s shard.ID, as []shard.Assignment) {
	p.staged.Set(s, as)
}

// Remove stages the removal of shard s.
func (p *PartitionPublisher) Remove(s shard.ID) {
	p.staged.Remove(s)
}

// Flush publishes the staged edits as one new map version and clears the
// staging buffer. A flush with nothing staged still publishes (a heartbeat
// republication) at O(1) cost.
func (p *PartitionPublisher) Flush() {
	p.version++
	d := p.staged
	d.App, d.FromVersion, d.ToVersion, d.Gen = p.app, p.version-1, p.version, 0
	p.Stats.ChangedEntries += int64(d.Len())
	if p.initial != nil {
		// Bootstrap: fold edits staged before the first flush into the
		// initial map and publish it as the base later deltas chain onto.
		if err := p.initial.ApplyDelta(d); err != nil {
			panic(err)
		}
		p.disc.Publish(p.initial)
		p.initial = nil
		d.Reset(p.app, 0, 0, 0)
		return
	}
	p.Stats.Deltas++
	p.Stats.DeltaBytes += d.ApproxBytes()
	p.staged = p.disc.PublishDelta(d).Reset(p.app, 0, 0, 0)
}

// FlushWave schedules one batched cross-partition publication wave on the
// sim loop: publishers flush in groups of batchSize per event, consecutive
// groups stagger apart, and done (optional) runs after the last group. A
// wave models §6.1's independent mini-SMs pushing their partitions' updates
// without a global synchronization point: the control plane's total publish
// work is spread across O(parts/batchSize) events instead of one giant stop-
// the-world broadcast.
func FlushWave(loop *sim.Loop, pubs []*PartitionPublisher, batchSize int, stagger time.Duration, done func()) {
	if batchSize < 1 {
		batchSize = 1
	}
	groups := (len(pubs) + batchSize - 1) / batchSize
	for g := 0; g < groups; g++ {
		lo, hi := g*batchSize, (g+1)*batchSize
		if hi > len(pubs) {
			hi = len(pubs)
		}
		batch := pubs[lo:hi]
		last := g == groups-1
		loop.AfterL(time.Duration(g)*stagger, lbFlush, func() {
			for _, p := range batch {
				p.Flush()
			}
			if last && done != nil {
				done()
			}
		})
	}
	if groups == 0 && done != nil {
		loop.AfterL(0, lbFlush, done)
	}
}
