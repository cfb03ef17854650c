package discovery

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// BenchmarkPublishFanout measures publishing a 1,000-shard map to 100
// subscribers, including delivery.
func BenchmarkPublishFanout(b *testing.B) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Millisecond))
	delivered := 0
	for i := 0; i < 100; i++ {
		subscribe(svc, func(int64) { delivered++ })
	}
	m := shard.NewMap("app")
	for i := 0; i < 1000; i++ {
		id := shard.ID(fmt.Sprintf("s%04d", i))
		m.Entries[id] = []shard.Assignment{{Server: "srv", Role: shard.RolePrimary}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Version = int64(i + 1)
		svc.Publish(m)
		loop.RunFor(10 * time.Millisecond)
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// benchMap builds an n-shard single-primary map.
func benchMap(n int) *shard.Map {
	m := shard.NewMap("app")
	m.Version = 1
	for i := 0; i < n; i++ {
		id := shard.ID(fmt.Sprintf("s%07d", i))
		m.Entries[id] = []shard.Assignment{{Server: shard.ServerID(fmt.Sprintf("srv%05d", i%512)), Role: shard.RolePrimary}}
	}
	return m
}

// publishSizes are the map sizes the publish benchmarks run at.
var publishSizes = []int{10_000, 120_000, 1_000_000}

// BenchmarkPublishDiff measures the orchestrator's publish: a freshly built
// full map that discovery diffs against its current map, here with one
// changed entry. The cost is the O(shards) diff scan; nothing is copied.
func BenchmarkPublishDiff(b *testing.B) {
	for _, n := range publishSizes {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			loop := sim.NewLoop(1)
			svc := NewService(loop, FixedDelay(time.Millisecond))
			delivered := 0
			subscribe(svc, func(int64) { delivered++ })
			m := benchMap(n)
			svc.Publish(m)
			loop.RunFor(10 * time.Millisecond)
			m = m.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Version++
				m.Entries["s0000000"] = []shard.Assignment{{Server: shard.ServerID(fmt.Sprintf("srv%05d", i%512)), Role: shard.RolePrimary}}
				svc.Publish(m)
				loop.RunFor(10 * time.Millisecond)
			}
			b.StopTimer()
			if delivered == 0 {
				b.Fatal("nothing delivered")
			}
		})
	}
}

// BenchmarkPublishDelta measures the same single-entry churn published as a
// delta: cost is O(changed entries) regardless of map size, which is the
// entire point of the delta path (ROADMAP item 2).
func BenchmarkPublishDelta(b *testing.B) {
	for _, n := range publishSizes {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			loop := sim.NewLoop(1)
			svc := NewService(loop, FixedDelay(time.Millisecond))
			f := &deltaFollower{}
			f.m = shard.NewMap("app")
			svc.Subscribe("app", f.onSnapshot, func(d *shard.Delta) {
				if err := f.m.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				f.deltas++
			})
			m := benchMap(n)
			svc.Publish(m)
			loop.RunFor(10 * time.Millisecond)
			d := shard.NewDelta("app")
			version := m.Version
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset("app", version, version+1, 0)
				d.SetOne("s0000000", shard.ServerID(fmt.Sprintf("srv%05d", i%512)), shard.RolePrimary)
				version++
				d = svc.PublishDelta(d)
				loop.RunFor(10 * time.Millisecond)
			}
			b.StopTimer()
			if f.deltas == 0 {
				b.Fatal("no deltas delivered")
			}
		})
	}
}

// TestPublishDeltaSteadyStateAllocs pins the publish-and-deliver cost once
// the delta buffers and delivery records have warmed up: a publish
// allocates exactly one list per changed entry (staging), and delivering it
// allocates nothing, however many subscribers apply it.
func TestPublishDeltaSteadyStateAllocs(t *testing.T) {
	const changed = 4
	for _, subs := range []int{2, 4} {
		loop := sim.NewLoop(1)
		svc := NewService(loop, FixedDelay(time.Millisecond))
		for i := 0; i < subs; i++ {
			f := &deltaFollower{applyNG: t}
			svc.Subscribe("app", f.onSnapshot, f.onDelta)
		}
		m := benchMap(1000)
		svc.Publish(m)
		loop.RunFor(10 * time.Millisecond)
		version := m.Version
		d := shard.NewDelta("app")
		ids := []shard.ID{"s0000100", "s0000101", "s0000102", "s0000103"}
		publish := func(srv shard.ServerID) {
			d.Reset("app", version, version+1, 0)
			for _, id := range ids[:changed] {
				d.SetOne(id, srv, shard.RolePrimary)
			}
			version++
			d = svc.PublishDelta(d)
			loop.RunFor(10 * time.Millisecond)
		}
		for i := 0; i < 3; i++ { // warm the buffer pool and the delivery freelist
			publish("srvX")
		}
		if allocs := testing.AllocsPerRun(100, func() { publish("srvY") }); allocs != changed {
			t.Fatalf("%d subscribers: steady-state delta publish+deliver allocates %.1f/run, want %d (one list per changed entry)",
				subs, allocs, changed)
		}
	}
}
