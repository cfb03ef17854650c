package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/controlplane"
	"shardmanager/internal/discovery"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// ControlScalePoint is one partitioned-control-plane benchmark configuration:
// an application of Shards shards split under the given partition/mini-SM
// shard limits, churned for Rounds publication waves.
type ControlScalePoint struct {
	Shards int
	// PartitionMaxShards / MiniSMMaxShards bound the split: Shards /
	// PartitionMaxShards partitions, packed onto mini-SMs that hold
	// MiniSMMaxShards shards each.
	PartitionMaxShards int
	MiniSMMaxShards    int
	// ChurnPerPartition is how many single-replica reassignments each
	// partition stages per publication wave.
	ChurnPerPartition int
	// Rounds is the number of steady-state churn waves.
	Rounds int
}

// ControlScaleParams configure the controlscale benchmark.
type ControlScaleParams struct {
	// Points are run in order; BENCH_controlplane.json records one entry
	// each.
	Points []ControlScalePoint
	// ShardsPerServer sizes the synthetic fleet (Shards/ShardsPerServer
	// servers, minimum 1).
	ShardsPerServer int
	// FlushBatch / FlushStagger shape the cross-partition publication wave:
	// FlushBatch partitions flush per event, consecutive batches
	// FlushStagger apart.
	FlushBatch   int
	FlushStagger time.Duration
	// SettleTime is the simulated time each wave is given to propagate
	// (must exceed the discovery delay ceiling plus the wave stagger).
	SettleTime time.Duration
	Seed       uint64
}

// DefaultControlScaleParams sweep the control plane from 100k shards up to
// the 10M-shard target: 200 partitions of 50k shards, one per mini-SM —
// a 200-mini-SM pool, the paper's "add mini-SMs to scale out" regime (§6.1).
func DefaultControlScaleParams() ControlScaleParams {
	return ControlScaleParams{
		Points: []ControlScalePoint{
			{Shards: 100_000, PartitionMaxShards: 25_000, MiniSMMaxShards: 25_000, ChurnPerPartition: 200, Rounds: 8},
			{Shards: 1_000_000, PartitionMaxShards: 50_000, MiniSMMaxShards: 50_000, ChurnPerPartition: 200, Rounds: 8},
			{Shards: 10_000_000, PartitionMaxShards: 50_000, MiniSMMaxShards: 50_000, ChurnPerPartition: 200, Rounds: 5},
		},
		ShardsPerServer: 1000,
		FlushBatch:      16,
		FlushStagger:    5 * time.Millisecond,
		SettleTime:      5 * time.Second,
		Seed:            1,
	}
}

// controlScaleOverride, when non-nil, reshapes the point sweep. smbench sets
// it from the -controlscale smoke flag.
var controlScaleOverride func(*ControlScaleParams)

// SetControlScaleOverride installs a mutator applied to the controlscale
// params after scale selection (nil to clear).
func SetControlScaleOverride(fn func(*ControlScaleParams)) { controlScaleOverride = fn }

// ControlScaleModeRecord is the measured steady-state publication cost at a
// point.
type ControlScaleModeRecord struct {
	// Publishes counts steady-state churn publications (deltas; the
	// bootstrap base is excluded).
	Publishes int64 `json:"publishes"`
	// BytesPerPublish is the approximate wire size of one steady-state
	// publication (shard.Delta.ApproxBytes).
	BytesPerPublish float64 `json:"bytes_per_publish"`
	// ChurnWallMS is the wall-clock cost of all churn waves end to end:
	// staging, publication, discovery fan-out, and subscriber application.
	ChurnWallMS     float64 `json:"churn_wall_ms"`
	PublishesPerSec float64 `json:"publishes_per_sec"`
}

// ControlScalePointRecord is one point's machine-readable result.
type ControlScalePointRecord struct {
	Shards            int                    `json:"shards"`
	Partitions        int                    `json:"partitions"`
	MiniSMs           int                    `json:"mini_sms"`
	Servers           int                    `json:"servers"`
	Rounds            int                    `json:"rounds"`
	ChurnPerPartition int                    `json:"churn_per_partition"`
	BootstrapWallMS   float64                `json:"bootstrap_wall_ms"`
	Delta             ControlScaleModeRecord `json:"delta"`
	// DeltaEntriesPerSec is changed entries propagated per wall-clock
	// second on the delta path (the baseline-gate metric).
	DeltaEntriesPerSec float64 `json:"delta_entries_per_sec"`
	// ConvergenceMS is the worst-case simulated latency from the start of a
	// delta publication wave until every subscriber has applied its update.
	ConvergenceMS float64 `json:"convergence_ms"`
}

// ControlScaleRecord is the BENCH_controlplane.json payload (Report.Extra).
type ControlScaleRecord struct {
	Machine Machine                   `json:"machine"`
	Points  []ControlScalePointRecord `json:"points"`
}

// ControlScale benchmarks the partitioned control plane end to end: each
// point registers one application with the control plane, which splits it
// into partitions and packs them onto mini-SMs; every partition owns a
// publication stream (its mini-SM's shard map slice) with one subscriber.
// Steady-state churn — a few hundred reassignments per partition per wave —
// is published as deltas and its cost measured.
func ControlScale(p ControlScaleParams) *Report {
	rep := &Report{
		ID:    "controlscale",
		Title: "partitioned control plane: delta publication cost",
		Params: map[string]string{
			"points":        fmt.Sprintf("%d", len(p.Points)),
			"flush_batch":   fmt.Sprintf("%d", p.FlushBatch),
			"settle":        p.SettleTime.String(),
			"seed":          fmt.Sprintf("%d", p.Seed),
			"shards/server": fmt.Sprintf("%d", p.ShardsPerServer),
		},
	}
	rec := &ControlScaleRecord{Machine: CurrentMachine()}
	table := Table{
		Title: "steady-state publication cost by scale",
		Columns: []string{"shards", "parts", "miniSMs", "delta ms/wave",
			"delta B/pub", "entries/sec", "converge ms"},
	}
	for i, pt := range p.Points {
		r := runControlScalePoint(p, pt, p.Seed+uint64(i))
		rec.Points = append(rec.Points, r)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.MiniSMs),
			fmt.Sprintf("%.2f", r.Delta.ChurnWallMS/float64(r.Rounds)),
			fmt.Sprintf("%.0f", r.Delta.BytesPerPublish),
			fmt.Sprintf("%.0f", r.DeltaEntriesPerSec),
			fmt.Sprintf("%.0f", r.ConvergenceMS),
		})
	}
	rep.Tables = append(rep.Tables, table)
	last := rec.Points[len(rec.Points)-1]
	rep.AddValue("shards", float64(last.Shards))
	rep.AddValue("mini_sms", float64(last.MiniSMs))
	rep.AddValue("delta_entries_per_sec", rec.Points[0].DeltaEntriesPerSec)
	rep.AddNote("largest point: %d shards over %d partitions on %d mini-SMs; %.0f bytes/publish, %.2f ms per churn wave",
		last.Shards, last.Partitions, last.MiniSMs,
		last.Delta.BytesPerPublish, last.Delta.ChurnWallMS/float64(last.Rounds))
	rep.AddNote("worst-case map convergence at that point: %.0f ms simulated from wave start to every subscriber applied",
		last.ConvergenceMS)
	rep.Extra = rec
	return rep
}

// runControlScalePoint drives one configuration and returns its record.
func runControlScalePoint(p ControlScaleParams, pt ControlScalePoint, seed uint64) ControlScalePointRecord {
	w := runControlScaleWorld(p, pt, seed)
	r := ControlScalePointRecord{
		Shards:            pt.Shards,
		Partitions:        w.partitions,
		MiniSMs:           w.miniSMs,
		Servers:           w.servers,
		Rounds:            pt.Rounds,
		ChurnPerPartition: pt.ChurnPerPartition,
		BootstrapWallMS:   w.bootstrapWall.Seconds() * 1e3,
		Delta:             w.mode(),
		ConvergenceMS:     float64(w.convergence) / float64(time.Millisecond),
	}
	if r.Delta.ChurnWallMS > 0 {
		r.DeltaEntriesPerSec = float64(w.changedEntries) / (r.Delta.ChurnWallMS / 1e3)
	}
	return r
}

// controlScaleWorld holds one point's measurements.
type controlScaleWorld struct {
	partitions, miniSMs, servers int
	bootstrapWall                time.Duration
	churnWall                    time.Duration
	publishes                    int64 // steady-state churn publications
	bytes                        int64 // their total approximate wire size
	changedEntries               int64
	convergence                  time.Duration // worst sim-time wave->applied
}

func (w *controlScaleWorld) mode() ControlScaleModeRecord {
	m := ControlScaleModeRecord{
		Publishes:   w.publishes,
		ChurnWallMS: w.churnWall.Seconds() * 1e3,
	}
	if w.publishes > 0 {
		m.BytesPerPublish = float64(w.bytes) / float64(w.publishes)
	}
	if w.churnWall > 0 {
		m.PublishesPerSec = float64(w.publishes) / w.churnWall.Seconds()
	}
	return m
}

// runControlScaleWorld builds one world — control plane, partition
// publishers, one subscriber per partition — bootstraps it with a full
// publication wave, then drives Rounds churn waves, measuring wall-clock
// publication cost and simulated convergence latency.
func runControlScaleWorld(p ControlScaleParams, pt ControlScalePoint, seed uint64) *controlScaleWorld {
	const app = shard.AppID("controlscale")
	loop := sim.NewLoop(seed)
	disc := discovery.NewService(loop, discovery.DefaultDelay())

	servers := pt.Shards / p.ShardsPerServer
	if servers < 1 {
		servers = 1
	}
	limits := controlplane.Limits{
		PartitionMaxServers: 5000,
		PartitionMaxShards:  pt.PartitionMaxShards,
		MiniSMMaxServers:    50000,
		MiniSMMaxShards:     pt.MiniSMMaxShards,
	}
	cp := controlplane.New(limits)
	parts, err := cp.RegisterApp(controlplane.AppSpec{
		App:     app,
		Servers: servers,
		Shards:  pt.Shards,
		Regions: []topology.RegionID{"global"},
	})
	if err != nil {
		panic(err)
	}
	router := controlplane.NewShardRouter(app, pt.Shards, len(parts))

	w := &controlScaleWorld{
		partitions: len(parts),
		miniSMs:    len(cp.MiniSMs()),
		servers:    servers,
	}

	// Identities are precomputed so churn staging costs no formatting.
	ids := make([]shard.ID, pt.Shards)
	srvs := make([]shard.ServerID, servers)
	for i := range srvs {
		srvs[i] = shard.ServerID(fmt.Sprintf("srv-%05d", i))
	}

	// One publisher and one subscriber per partition. The subscriber mirrors
	// a mini-SM's downstream consumer: it keeps its own copy of the
	// partition's map table and applies each delta to it.
	pubs := make([]*controlplane.PartitionPublisher, len(parts))
	lastApplied := make([]time.Duration, len(parts))
	for pi := range parts {
		lo, hi := router.Range(pi)
		pm := shard.NewMap(router.PartitionApp(pi))
		for idx := lo; idx < hi; idx++ {
			ids[idx] = shard.ID(fmt.Sprintf("s%08d", idx))
			pm.Entries[ids[idx]] = []shard.Assignment{{
				Server: srvs[idx%servers],
				Role:   shard.RolePrimary,
			}}
		}
		pubs[pi] = controlplane.NewPartitionPublisher(disc, pm.App, pm)

		cell := &lastApplied[pi]
		var mine *shard.Map
		disc.Subscribe(pm.App,
			func(m *shard.Map) {
				mine = m.CloneInto(mine)
				*cell = loop.Now()
			},
			func(d *shard.Delta) {
				if err := mine.ApplyDelta(d); err != nil {
					panic(err)
				}
				*cell = loop.Now()
			})
	}

	settle := func() {
		done := false
		controlplane.FlushWave(loop, pubs, p.FlushBatch, p.FlushStagger, func() { done = true })
		loop.RunFor(p.SettleTime)
		if !done {
			panic("controlscale: flush wave did not complete within the settle window")
		}
	}

	// Bootstrap: the base publication wave (each partition's full map, the
	// snapshot its deltas chain onto).
	t0 := time.Now()
	settle()
	w.bootstrapWall = time.Since(t0)
	base := aggregate(pubs)

	// Steady-state churn: each wave stages ChurnPerPartition single-replica
	// reassignments per partition, then publishes partition-by-partition in
	// batched flush groups. Wall clock covers staging through subscriber
	// application; convergence is simulated time from wave start to the last
	// subscriber's apply.
	rng := loop.RNG().Fork()
	for round := 0; round < pt.Rounds; round++ {
		waveStart := loop.Now()
		t0 = time.Now()
		for pi, pub := range pubs {
			lo, hi := router.Range(pi)
			for j := 0; j < pt.ChurnPerPartition; j++ {
				idx := lo + rng.Intn(hi-lo)
				pub.SetOne(ids[idx], srvs[rng.Intn(servers)], shard.RolePrimary)
			}
		}
		settle()
		w.churnWall += time.Since(t0)
		for _, at := range lastApplied {
			if lag := at - waveStart; lag > w.convergence {
				w.convergence = lag
			}
		}
	}

	st := aggregate(pubs)
	w.changedEntries = st.ChangedEntries - base.ChangedEntries
	w.publishes = st.Deltas - base.Deltas
	w.bytes = st.DeltaBytes - base.DeltaBytes
	return w
}

// aggregate sums publisher stats across partitions.
func aggregate(pubs []*controlplane.PartitionPublisher) controlplane.PublisherStats {
	var st controlplane.PublisherStats
	for _, p := range pubs {
		st.Deltas += p.Stats.Deltas
		st.DeltaBytes += p.Stats.DeltaBytes
		st.ChangedEntries += p.Stats.ChangedEntries
	}
	return st
}
