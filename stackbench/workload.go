package main

import (
	"fmt"
	"strconv"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/audit"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
)

// Labels for the benchmark's own scheduled work, so the kernel profiler
// never charges it to a layer of the stack.
var (
	lbClient   = sim.LabelFor("stackbench", "client")
	lbConverge = sim.LabelFor("stackbench", "converge_poll")
	lbDisrupt  = sim.LabelFor("stackbench", "disrupt")
)

// regions and their one-way latencies follow the Fig 19 deployment.
var regions = []topology.RegionID{"frc", "prn", "odn"}

var regionLatency = map[[2]topology.RegionID]time.Duration{
	{"frc", "prn"}: 35 * time.Millisecond,
	{"frc", "odn"}: 45 * time.Millisecond,
	{"prn", "odn"}: 80 * time.Millisecond,
}

// sloLimit is the simulated latency above which a successful request still
// misses its objective. The worst healthy request is a write from prn to a
// primary in odn (or back): 2 x 80ms one-way plus up to 10% jitter per leg
// is 176ms, so 200ms sits just above it.
const sloLimit = 200 * time.Millisecond

// params size one workload. Everything a run does follows from params and
// the seed.
type params struct {
	name             string
	shards           int
	serversPerRegion int
	keysPerShard     int
	replicas         int
	// rate is the total open-loop arrival rate (requests per simulated
	// second) over all clients.
	rate    float64
	putFrac float64
	// measure is the simulated length of the measured window; arrivals are
	// scheduled over all of it.
	measure time.Duration
	// upgradeAt starts a TaskController-gated rolling upgrade of every
	// region's job this far into the window (0 = none).
	upgradeAt time.Duration
	// upgradeConcurrency is how many containers per region restart at once.
	upgradeConcurrency int
	// restart is the in-place container restart time of the upgrade.
	restart time.Duration
	// allocInterval is the orchestrator's periodic allocation (and drain
	// re-check) period; 0 keeps the library default.
	allocInterval time.Duration
	// failAt / recoverAt fail and recover every machine of failRegion
	// (0 = no failure).
	failAt, recoverAt time.Duration
	failRegion        topology.RegionID
	// minSamples is the fewest successful requests a run must measure:
	// p99.9 then has at least ten samples beyond it at full scale.
	minSamples int
	// noRequestFailures marks workloads without faults: a failed request
	// there is a correctness failure, not a measurement.
	noRequestFailures bool
}

const (
	wlSteady   = "kv-steady"
	wlUpgrade  = "rolling-upgrade"
	wlFailover = "region-failover"
)

var workloadNames = []string{wlSteady, wlUpgrade, wlFailover}

// workloadParams returns the sizing of a workload at a scale: "full" is what
// the committed benchmark measures, "tiny" keeps the package tests fast.
func workloadParams(name, scale string) (params, error) {
	var p params
	switch name {
	case wlSteady:
		p = params{
			name: name, shards: 10000, serversPerRegion: 20, keysPerShard: 4, replicas: 3,
			rate: 5000, putFrac: 0.05, measure: 60 * time.Second,
			noRequestFailures: true,
		}
	case wlUpgrade:
		p = params{
			name: name, shards: 500, serversPerRegion: 6, keysPerShard: 8, replicas: 3,
			rate: 40, putFrac: 0.5, measure: 300 * time.Second,
			upgradeAt: 10 * time.Second, upgradeConcurrency: 1,
			restart: 20 * time.Second, allocInterval: 10 * time.Second,
		}
	case wlFailover:
		p = params{
			name: name, shards: 2000, serversPerRegion: 10, keysPerShard: 4, replicas: 3,
			rate: 100, putFrac: 0.2, measure: 180 * time.Second,
			failAt: 20 * time.Second, recoverAt: 100 * time.Second, failRegion: "frc",
		}
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	switch scale {
	case "full":
		p.minSamples = 10000
	case "tiny":
		p.shards /= 20
		p.serversPerRegion = max(3, p.serversPerRegion/3)
		p.rate /= 20
		p.keysPerShard = 2
		p.minSamples = 100
	default:
		return p, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
	}
	return p, nil
}

// request is one generated input: when it is due (offset into the measured
// window), which client sends it, which key, and whether it writes.
type request struct {
	at     time.Duration
	key    int32
	client uint8
	put    bool
}

// inputs are everything the workload seed decides. The stack under test
// receives only these (and a deployment seed derived from the same seed).
type inputs struct {
	p       params
	seed    uint64
	simSeed uint64
	keys    []string // key i belongs to shard i / keysPerShard
	reqs    []request
}

// genInputs draws a workload's inputs from its seed: open-loop Poisson
// arrivals over the measured window, uniform keys, and the put/get mix.
func genInputs(p params, seed uint64) *inputs {
	in := &inputs{p: p, seed: seed, simSeed: seed*0x9e3779b97f4a7c15 + 0x5eed}
	for s := 0; s < p.shards; s++ {
		for k := 0; k < p.keysPerShard; k++ {
			in.keys = append(in.keys, fmt.Sprintf("s%05d/k%d", s, k))
		}
	}
	rng := sim.NewRNG(seed ^ 0x51ac4be9c4)
	meanGap := float64(time.Second) / p.rate
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() * meanGap)
		if t >= p.measure {
			break
		}
		in.reqs = append(in.reqs, request{
			at:     t,
			key:    int32(rng.Intn(len(in.keys))),
			client: uint8(rng.Intn(len(regions))),
			put:    rng.Float64() < p.putFrac,
		})
	}
	return in
}

// preloadValue and putValue are the only values a get may return: the
// preload for the key, or the value of a put the workload issued for it.
func preloadValue(key int32) string { return "p" + strconv.Itoa(int(key)) }
func putValue(req int) string       { return "w" + strconv.Itoa(req) }

// reqTag rides as the payload of a get so the traced run can tie the
// application's HandleRequest call back to the request that caused it. The
// KV application ignores a get's payload.
type reqTag int32

// world is one built deployment with its clients.
type world struct {
	in      *inputs
	d       *experiments.Deployment
	backing *apps.KVBacking
	clients []*routing.Client
	app     *appWrapper // nil unless traced
}

// buildWorld builds, preloads, settles and warms up a deployment. With
// traced set the application is wrapped for timing and the auditor is
// attached; neither draws randomness or schedules events, so the simulated
// run is the same either way.
func buildWorld(in *inputs, traced bool, profiler sim.Profiler) (*world, error) {
	p := in.p
	w := &world{in: in, backing: apps.NewKVBacking()}
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadLevel = topology.LevelRegion
	pol.SpreadWeight = 100
	cfg := orchestrator.Config{
		App:      "kvbench",
		Strategy: shard.PrimarySecondary,
		Shards: experiments.UniformShardConfigs(p.shards, p.replicas, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		// The KV application reports one unit of CPU and one shard per
		// replica, so capacity is sized in replicas: any server could hold a
		// replica of every shard.
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        float64(p.shards),
			topology.ResourceShardCount: float64(p.shards),
		},
		HomeRegion:              "prn",
		GracefulMigration:       true,
		FailoverGrace:           20 * time.Second,
		MaxConcurrentMigrations: 200,
		AllocInterval:           p.allocInterval,
	}
	spec := experiments.DeploymentSpec{
		Regions:          regions,
		ServersPerRegion: p.serversPerRegion,
		Latency:          regionLatency,
		Orch:             cfg,
		ClusterOpts:      cluster.DefaultOptions(),
		Profiler:         profiler,
		Seed:             in.simSeed,
	}
	if p.restart > 0 {
		spec.ClusterOpts.RestartDuration = p.restart
	}
	if p.upgradeAt > 0 {
		tp := taskcontroller.DefaultPolicy(p.upgradeConcurrency * len(regions))
		spec.TaskPolicy = &tp
	}
	if traced {
		w.app = newAppWrapper(w.backing)
		spec.AppFactory = w.app.factory
		spec.Audit = &audit.Options{}
	} else {
		spec.AppFactory = func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, w.backing)
		}
	}
	w.d = experiments.Build(spec)
	for i, key := range in.keys {
		w.backing.Put(shardID(i/p.keysPerShard), key, preloadValue(int32(i)))
	}
	if err := w.d.Settle(10 * time.Minute); err != nil {
		return nil, err
	}
	ks := experiments.KeyspaceFor(p.shards)
	for _, r := range regions {
		w.clients = append(w.clients, w.d.NewClient(r, ks, routing.DefaultOptions()))
	}
	// A client has no map until discovery first delivers one; requests sent
	// before that fail with no-replica and would dominate the tail.
	for deadline := w.d.Loop.Now() + 30*time.Second; ; {
		ready := true
		for _, c := range w.clients {
			ready = ready && c.HasMap()
		}
		if ready {
			break
		}
		if w.d.Loop.Now() >= deadline {
			return nil, fmt.Errorf("clients got no shard map within 30s")
		}
		w.d.Loop.RunFor(100 * time.Millisecond)
	}
	return w, nil
}

func shardID(i int) shard.ID { return shard.ID(fmt.Sprintf("s%05d", i)) }

// converged reports whether every shard has its full replica count, each
// replica active on a live server.
func converged(d *experiments.Deployment) bool { return len(unconverged(d, 1)) == 0 }

// unconverged describes up to limit shards that are short of converged: a
// missing replica slot, or a listed replica that its server does not hold
// active.
func unconverged(d *experiments.Deployment, limit int) []string {
	var bad []string
	m := d.Orch.AssignmentSnapshot()
	for _, id := range d.Orch.ShardIDs() {
		as := m.Replicas(id)
		if want := d.Orch.TotalReplicas(id); len(as) != want {
			bad = append(bad, fmt.Sprintf("%s has %d of %d replicas", id, len(as), want))
		}
		for _, a := range as {
			if srv := d.Dir.Lookup(a.Server); srv == nil || !srv.HoldsActive(id) {
				bad = append(bad, fmt.Sprintf("%s lists %s, which does not hold it active", id, a.Server))
			}
		}
		if len(bad) >= limit {
			return bad[:limit]
		}
	}
	return bad
}
