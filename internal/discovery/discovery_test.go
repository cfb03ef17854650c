package discovery

import (
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// subscribe registers a subscriber to "app" that reports every version it
// receives, whether as a snapshot or as a delta.
func subscribe(svc *Service, fn func(v int64)) *Subscription {
	return svc.Subscribe("app",
		func(m *shard.Map) { fn(m.Version) },
		func(d *shard.Delta) { fn(d.ToVersion) })
}

func mapV(v int64) *shard.Map {
	m := shard.NewMap("app")
	m.Version = v
	m.Entries["s1"] = []shard.Assignment{{Server: shard.ServerID("srv"), Role: shard.RolePrimary}}
	return m
}

func TestPublishDeliversAfterDelay(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	var got []int64
	subscribe(svc, func(v int64) { got = append(got, v) })
	svc.Publish(mapV(1))
	loop.RunFor(500 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivered before propagation delay")
	}
	loop.RunFor(time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got = %v", got)
	}
}

func TestSubscribeReceivesCurrentMap(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(mapV(7))
	var got int64
	subscribe(svc, func(v int64) { got = v })
	loop.RunFor(2 * time.Second)
	if got != 7 {
		t.Fatalf("late subscriber got v%d, want 7", got)
	}
}

func TestStaleVersionsIgnoredOnPublish(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(mapV(5))
	svc.Publish(mapV(4)) // older, ignored
	svc.Publish(mapV(5)) // same, ignored
	if svc.Publications != 1 {
		t.Fatalf("Publications = %d, want 1", svc.Publications)
	}
	if svc.Current("app").Version != 5 {
		t.Fatalf("Current = v%d", svc.Current("app").Version)
	}
}

func TestOutOfOrderDeliverySuppressed(t *testing.T) {
	loop := sim.NewLoop(1)
	// Delay alternates long, short: v1 delivery scheduled with a longer
	// delay than v2, so v2 arrives first and v1 must be dropped.
	delays := []time.Duration{3 * time.Second, 1 * time.Second}
	i := 0
	svc := NewService(loop, func(*sim.RNG) time.Duration {
		d := delays[i%len(delays)]
		i++
		return d
	})
	var got []int64
	subscribe(svc, func(v int64) { got = append(got, v) })
	svc.Publish(mapV(1))
	svc.Publish(mapV(2))
	loop.RunFor(10 * time.Second)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got = %v, want just [2]", got)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	n := 0
	sub := subscribe(svc, func(int64) { n++ })
	svc.Publish(mapV(1))
	sub.Cancel()
	loop.RunFor(5 * time.Second)
	if n != 0 {
		t.Fatalf("cancelled subscriber received %d maps", n)
	}
}

func TestPublishClonesMap(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(0))
	m := mapV(1)
	svc.Publish(m)
	// The table stays the caller's: replacing or adding entries after the
	// publish does not reach the service.
	m.Entries["s1"] = []shard.Assignment{{Server: "mutated"}}
	m.Entries["s2"] = nil
	cur := svc.Current("app")
	if cur.Entries["s1"][0].Server != "srv" || len(cur.Entries) != 1 {
		t.Fatal("Publish did not copy the table")
	}
}

func TestCurrentUnknownApp(t *testing.T) {
	svc := NewService(sim.NewLoop(1), nil)
	if svc.Current("nope") != nil {
		t.Fatal("Current of unknown app should be nil")
	}
}

func TestUniformDelayBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	f := UniformDelay(time.Second, 2*time.Second)
	for i := 0; i < 1000; i++ {
		d := f(rng)
		if d < time.Second || d > 2*time.Second {
			t.Fatalf("delay %v out of bounds", d)
		}
	}
}

func TestUniformDelayPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformDelay(2*time.Second, time.Second)
}

func TestMultipleSubscribersIndependentDelays(t *testing.T) {
	loop := sim.NewLoop(42)
	svc := NewService(loop, DefaultDelay())
	n := 0
	for i := 0; i < 50; i++ {
		subscribe(svc, func(int64) { n++ })
	}
	svc.Publish(mapV(1))
	loop.RunFor(3 * time.Second)
	if n != 50 {
		t.Fatalf("deliveries = %d, want 50", n)
	}
}

func TestPanicsOnNilArgs(t *testing.T) {
	svc := NewService(sim.NewLoop(1), nil)
	for name, fn := range map[string]func(){
		"publish nil":   func() { svc.Publish(nil) },
		"subscribe nil": func() { svc.Subscribe("app", nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSubscriberDeliveryTimingUnaffectedByOtherSubscribers is the regression
// test for the shared-RNG bug: delivery delays used to come from one service
// stream consumed in delivery order, so adding a subscriber shifted every
// other subscriber's delay sequence. With per-subscriber forked RNGs, an
// earlier subscriber's timing is identical whether or not later subscribers
// exist.
func TestSubscriberDeliveryTimingUnaffectedByOtherSubscribers(t *testing.T) {
	run := func(extraSubscribers int) []time.Duration {
		loop := sim.NewLoop(42)
		svc := NewService(loop, DefaultDelay())
		var at []time.Duration
		subscribe(svc, func(int64) { at = append(at, loop.Now()) })
		for i := 0; i < extraSubscribers; i++ {
			subscribe(svc, func(int64) {})
		}
		for v := int64(1); v <= 5; v++ {
			svc.Publish(mapV(v))
			loop.RunFor(5 * time.Second)
		}
		return at
	}
	alone := run(0)
	crowded := run(7)
	if len(alone) != 5 || len(crowded) != 5 {
		t.Fatalf("deliveries = %d and %d, want 5 each", len(alone), len(crowded))
	}
	for i := range alone {
		if alone[i] != crowded[i] {
			t.Fatalf("delivery %d at %v alone but %v with extra subscribers", i, alone[i], crowded[i])
		}
	}
}

// A cancelled subscription must not change the delay sequence of the
// remaining subscribers either.
func TestCancelDoesNotPerturbOtherSubscribers(t *testing.T) {
	run := func(cancel bool) []time.Duration {
		loop := sim.NewLoop(7)
		svc := NewService(loop, DefaultDelay())
		var at []time.Duration
		subscribe(svc, func(int64) { at = append(at, loop.Now()) })
		other := subscribe(svc, func(int64) {})
		if cancel {
			other.Cancel()
		}
		for v := int64(1); v <= 5; v++ {
			svc.Publish(mapV(v))
			loop.RunFor(5 * time.Second)
		}
		return at
	}
	kept, cancelled := run(false), run(true)
	for i := range kept {
		if kept[i] != cancelled[i] {
			t.Fatalf("delivery %d moved from %v to %v when a sibling cancelled", i, kept[i], cancelled[i])
		}
	}
}

func TestBatchedFanoutDeliversToAllSubscribers(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.SetFanoutBatch(4)
	const subs = 10 // 3 batches: 4 + 4 + 2
	got := make([]int64, subs)
	for i := 0; i < subs; i++ {
		i := i
		subscribe(svc, func(v int64) { got[i] = v })
	}
	svc.Publish(mapV(1))
	// One event per batch, not per subscriber.
	if p := loop.Pending(); p != 3 {
		t.Fatalf("Pending = %d after publish, want 3 batch events", p)
	}
	loop.RunFor(2 * time.Second)
	for i, v := range got {
		if v != 1 {
			t.Fatalf("subscriber %d saw version %d, want 1", i, v)
		}
	}
}

func TestBatchedFanoutRespectsCancelAndStaleness(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.SetFanoutBatch(8)
	var live []int64
	dead := 0
	subscribe(svc, func(v int64) { live = append(live, v) })
	cancelled := subscribe(svc, func(int64) { dead++ })
	cancelled.Cancel()
	svc.Publish(mapV(1))
	svc.Publish(mapV(2))
	loop.RunFor(5 * time.Second)
	// Both deliveries land at the same instant. The bootstrap delivery
	// hands over the current map, already at v2, so the v1->v2 delta that
	// follows is stale.
	if len(live) != 1 || live[0] != 2 || dead != 0 {
		t.Fatalf("live=%v dead=%d, want [2]/0", live, dead)
	}
}

func TestBatchedFanoutCatchUpOnSubscribe(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.SetFanoutBatch(4)
	svc.Publish(mapV(3))
	loop.RunFor(2 * time.Second)
	var got int64
	subscribe(svc, func(v int64) { got = v })
	loop.RunFor(2 * time.Second)
	if got != 3 {
		t.Fatalf("late subscriber saw version %d, want 3", got)
	}
}

func TestSetFanoutBatchAfterSubscribePanics(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	subscribe(svc, func(int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetFanoutBatch after Subscribe did not panic")
		}
	}()
	svc.SetFanoutBatch(4)
}

func TestDefaultFanoutMatchesLegacyPerSubscriberTiming(t *testing.T) {
	// Batch size 1 (the default) must be byte-for-byte the legacy path:
	// same per-subscriber RNG streams, same delivery instants. Compare a
	// default service against one with SetFanoutBatch(1) explicitly.
	run := func(configure func(*Service)) []time.Duration {
		loop := sim.NewLoop(42)
		svc := NewService(loop, nil) // DefaultDelay: per-delivery RNG draws
		configure(svc)
		var at []time.Duration
		for i := 0; i < 5; i++ {
			subscribe(svc, func(int64) { at = append(at, loop.Now()) })
		}
		svc.Publish(mapV(1))
		loop.RunFor(time.Minute)
		return at
	}
	a := run(func(*Service) {})
	b := run(func(s *Service) { s.SetFanoutBatch(1) })
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("deliveries: %d vs %d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: batch=1 diverges from legacy", i, a[i], b[i])
		}
	}
}
