// Package routing implements the Service Router (SR) library linked into
// application clients (§3.2): it learns the application's shard map from
// the service discovery system, maps keys to shards through the app-owned
// keyspace, picks a replica (the primary for writes, the closest replica
// for reads), sends the request over the simulated network, and retries on
// failures and on "wrong owner" rejections caused by stale maps.
//
// The client-facing API mirrors §3.3:
//
//	rpc_client = get_client(app_name, key)
//	rpc_client.function_foo(...)
//
// which here is Client.Do(key, ...).
package routing

import (
	"sort"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// lbRetry attributes request-retry timers in the kernel profiler.
var lbRetry = sim.LabelFor("routing", "retry")

// Options configure a client.
type Options struct {
	// MaxAttempts bounds total tries per request (default 4).
	MaxAttempts int
	// RetryDelay is the base delay before the first retry (default 200ms).
	// Subsequent retries back off exponentially from it.
	RetryDelay time.Duration
	// MaxRetryDelay caps the exponential backoff (default 5s).
	MaxRetryDelay time.Duration
	// RetryJitter adds up to this fraction of extra random delay per retry
	// (default 0.2), drawn from the client's own forked RNG so retries from
	// many clients decorrelate instead of stampeding in lockstep after a
	// partition heals. Set negative to disable jitter entirely.
	RetryJitter float64
}

// DefaultOptions returns sensible client settings.
func DefaultOptions() Options {
	return Options{
		MaxAttempts:   4,
		RetryDelay:    200 * time.Millisecond,
		MaxRetryDelay: 5 * time.Second,
		RetryJitter:   0.2,
	}
}

// Result is the final outcome of one request as seen by the client.
type Result struct {
	OK       bool
	Err      string
	Payload  any
	Latency  time.Duration
	Attempts int
	// Hops counts server-side forwarding hops on the final attempt.
	Hops int
	// Server that handled the final attempt.
	Server shard.ServerID
	Shard  shard.ID
	// Write reports whether the request was primary-routed.
	Write bool
	// RejectedBy is the server the final failed attempt was sent to (the
	// rejecting server when the failure was a rejection; "" when no
	// candidate existed at all). Success results leave it empty.
	RejectedBy shard.ServerID
	// MapVersion is the client's shard-map version when the request
	// finished — the auditor uses it to distinguish transient staleness
	// from permanently stale routing.
	MapVersion int64
}

// Client is one application client instance located in a region.
type Client struct {
	App    shard.AppID
	Region topology.RegionID

	loop     *sim.Loop
	net      *rpcnet.Network
	dir      *appserver.Directory
	disc     *discovery.Service
	fleet    *topology.Fleet
	keyspace *shard.Keyspace
	opts     Options
	rng      *sim.RNG
	retryRNG *sim.RNG

	// current is the client's own map table: snapshots are copied into it
	// and deltas applied to it in place (the lists are shared and
	// immutable).
	current *shard.Map

	// MapUpdates counts received shard-map versions.
	MapUpdates int64

	// observers see every final Result at the simulated time it completes.
	// They must not draw randomness — healthmon hangs availability tracking
	// off this hook precisely because it cannot perturb the seeded RNG.
	observers []func(Result)
}

// NewClient creates a client and subscribes it to the app's shard map.
func NewClient(loop *sim.Loop, net *rpcnet.Network, dir *appserver.Directory,
	disc *discovery.Service, fleet *topology.Fleet, app shard.AppID,
	keyspace *shard.Keyspace, region topology.RegionID, opts Options) *Client {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.RetryDelay <= 0 {
		opts.RetryDelay = 200 * time.Millisecond
	}
	if opts.MaxRetryDelay <= 0 {
		opts.MaxRetryDelay = 5 * time.Second
	}
	if opts.RetryJitter == 0 {
		opts.RetryJitter = 0.2
	}
	c := &Client{
		App:      app,
		Region:   region,
		loop:     loop,
		net:      net,
		dir:      dir,
		disc:     disc,
		fleet:    fleet,
		keyspace: keyspace,
		opts:     opts,
		rng:      loop.RNG().Fork(),
	}
	// Retry jitter has its own stream forked from the client's RNG: drawing
	// jitter from c.rng directly would shift the read tie-break sequence
	// whenever a request happens to retry.
	c.retryRNG = c.rng.Fork()
	disc.Subscribe(app, c.installMap, c.applyDelta)
	return c
}

// installMap copies a delivered snapshot (the start-up catch-up or a
// resync) into the client's table. An on-demand refresh may already have
// installed a newer map than this delivery carries; never regress.
func (c *Client) installMap(m *shard.Map) {
	if !newer(m.Version, m.Gen, c.current) {
		return
	}
	c.current = m.CloneInto(c.current)
	c.MapUpdates++
}

// applyDelta chains one in-order delta onto the client's map. An on-demand
// refresh may have moved the client past the delta's base version; a delta
// that can no longer chain falls back to a refresh from the authoritative
// current map.
func (c *Client) applyDelta(d *shard.Delta) {
	cur := c.current
	if cur == nil || cur.Version >= d.ToVersion {
		return
	}
	if cur.Version == d.FromVersion && cur.ApplyDelta(d) == nil {
		c.MapUpdates++
		return
	}
	c.refreshMap()
}

// newer reports whether a map at (version, gen) supersedes cur: by fencing
// generation when both maps carry one (the total order shared with sessions
// and grants), by version otherwise.
func newer(version, gen int64, cur *shard.Map) bool {
	if cur == nil {
		return true
	}
	if gen > 0 && cur.Gen > 0 {
		return gen > cur.Gen
	}
	return version > cur.Version
}

// refreshMap pulls the discovery system's current map immediately, without
// waiting for tree propagation. The SR library does this when a server's
// rejection implies the client's map is generation-behind ("fenced",
// "not-owner", "not-primary"): the map that fixes the routing already exists,
// so fetching it now closes the staleness window instead of retrying blind.
func (c *Client) refreshMap() {
	// Peek at the version first so a no-op refresh costs no copy.
	v, g, ok := c.disc.CurrentMeta(c.App)
	if !ok || !newer(v, g, c.current) {
		return
	}
	c.current = c.disc.CurrentInto(c.App, c.current)
	c.MapUpdates++
	c.loop.Metrics().Counter("routing_map_refreshes_total",
		"app", string(c.App)).Inc()
}

// OnResult registers fn to run on every final request Result.
func (c *Client) OnResult(fn func(Result)) {
	c.observers = append(c.observers, fn)
}

// HasMap reports whether the client has received any shard map yet.
func (c *Client) HasMap() bool { return c.current != nil }

// MapVersion returns the client's current map version (0 if none).
func (c *Client) MapVersion() int64 {
	if c.current == nil {
		return 0
	}
	return c.current.Version
}

// Do routes one request for key and invokes done with the final outcome.
// write selects primary-routed requests.
func (c *Client) Do(key string, write bool, op string, payload any, done func(Result)) {
	s := c.keyspace.ShardFor(key)
	start := c.loop.Now()
	if mr := c.loop.Metrics(); mr != nil || len(c.observers) > 0 {
		app := string(c.App)
		inner := done
		done = func(res Result) {
			if mr != nil {
				mr.Counter("routing_requests_total", "app", app).Inc()
				outcome := "ok"
				if !res.OK {
					// res.Err comes from a small fixed set of reject
					// reasons, so it is safe as a label value.
					outcome = res.Err
					if outcome == "" {
						outcome = "error"
					}
				}
				mr.Counter("routing_results_total", "app", app, "outcome", outcome).Inc()
				if res.Attempts > 1 {
					mr.Counter("routing_retries_total", "app", app).Add(int64(res.Attempts - 1))
				}
				if res.OK {
					mr.Histogram("routing_latency_ms", nil, "app", app).
						Observe(float64(res.Latency) / float64(time.Millisecond))
				}
			}
			for _, fn := range c.observers {
				fn(res)
			}
			inner(res)
		}
	}
	var root trace.SpanID
	if tr := c.loop.Tracer(); tr.Enabled() {
		root = tr.StartSpan("routing", "request", 0,
			trace.String("key", key),
			trace.String("shard", string(s)),
			trace.Bool("write", write),
			trace.String("op", op))
		inner := done
		done = func(res Result) {
			tr.EndSpan(root,
				trace.Bool("ok", res.OK),
				trace.String("err", res.Err),
				trace.Int("attempts", res.Attempts),
				trace.Int("hops", res.Hops),
				trace.String("server", string(res.Server)))
			inner(res)
		}
	}
	c.attempt(&appserver.Request{
		App:       c.App,
		Shard:     s,
		Key:       key,
		Write:     write,
		Op:        op,
		Payload:   payload,
		TraceSpan: root,
	}, start, 1, make(map[shard.ServerID]bool), done)
}

// retryDelay returns the wait before attempt+1: capped exponential backoff
// from RetryDelay, plus deterministic jitter from the client's retry RNG.
// A fixed delay synchronizes every client blocked by the same partition into
// one retry storm the instant it heals; the jitter spreads them out.
func (c *Client) retryDelay(attempt int) time.Duration {
	d := c.opts.RetryDelay
	for i := 1; i < attempt && d < c.opts.MaxRetryDelay; i++ {
		d *= 2
	}
	if d > c.opts.MaxRetryDelay {
		d = c.opts.MaxRetryDelay
	}
	if c.opts.RetryJitter > 0 {
		d += time.Duration(c.retryRNG.Float64() * c.opts.RetryJitter * float64(d))
	}
	return d
}

// attempt performs one try and schedules retries.
func (c *Client) attempt(req *appserver.Request, start time.Duration, attempt int,
	tried map[shard.ServerID]bool, done func(Result)) {
	tr := c.loop.Tracer()
	var asp trace.SpanID
	if tr.Enabled() {
		// Map version at attempt time shows which attempts ran on a stale
		// map — the "wrong owner" retry loop of §3.2 made visible.
		asp = tr.StartSpan("routing", "attempt", req.TraceSpan,
			trace.Int("attempt", attempt),
			trace.Int64("map_version", c.MapVersion()))
	}
	var lastServer shard.ServerID
	fail := func(errMsg string) {
		if tr.Enabled() {
			tr.EndSpan(asp, trace.String("err", errMsg))
		}
		switch errMsg {
		case "fenced", "not-owner", "not-primary":
			// Ownership rejections mean the routing map is behind the
			// server's view; refresh before the retry (and even on the
			// final attempt, for the next request's benefit).
			c.refreshMap()
		}
		if attempt >= c.opts.MaxAttempts {
			done(Result{
				Err:        errMsg,
				Latency:    c.loop.Now() - start,
				Attempts:   attempt,
				Shard:      req.Shard,
				Write:      req.Write,
				RejectedBy: lastServer,
				MapVersion: c.MapVersion(),
			})
			return
		}
		c.loop.AfterL(c.retryDelay(attempt), lbRetry, func() {
			c.attempt(req, start, attempt+1, tried, done)
		})
	}

	target, ok := c.pickServer(req.Shard, req.Write, tried)
	if !ok {
		// No candidate at all (no map or no replicas known): retry
		// with a fresh view; an updated map may have arrived by then.
		for k := range tried {
			delete(tried, k)
		}
		fail("no-replica")
		return
	}
	tried[target] = true
	lastServer = target

	c.net.Send(c.Region, rpcnet.Endpoint(target), func() {
		srv := c.dir.Lookup(target)
		if srv == nil {
			fail("server-gone")
			return
		}
		srv.Serve(req, func(resp appserver.Response) {
			// Response travels back to the client's region over the fabric,
			// so injected link faults can lose or delay the reply leg too.
			c.net.Reply(srv.Region, c.Region, func() {
				if resp.OK {
					if tr.Enabled() {
						tr.EndSpan(asp,
							trace.String("server", string(resp.Server)),
							trace.Int("hops", resp.Hops))
					}
					done(Result{
						OK:         true,
						Payload:    resp.Payload,
						Latency:    c.loop.Now() - start,
						Attempts:   attempt,
						Hops:       resp.Hops,
						Server:     resp.Server,
						Shard:      req.Shard,
						Write:      req.Write,
						MapVersion: c.MapVersion(),
					})
					return
				}
				if resp.Server != "" {
					// A forwarded request may be rejected deeper in the
					// chain; attribute the failure to the actual rejecter.
					lastServer = resp.Server
				}
				fail(resp.Err)
			}, func() {
				fail("reply-lost")
			})
		})
	}, func() {
		fail("unreachable")
	})
}

// pickServer chooses a replica for the request: the primary for writes, the
// closest untried replica for reads (locality-aware, which is what makes
// the Fig 19 latency curves move). Secondary-only applications route reads
// round-robin among the closest replicas.
func (c *Client) pickServer(s shard.ID, write bool, tried map[shard.ServerID]bool) (shard.ServerID, bool) {
	if c.current == nil {
		return "", false
	}
	replicas := c.current.Replicas(s)
	if len(replicas) == 0 {
		return "", false
	}
	if write {
		for _, a := range replicas {
			if a.Role == shard.RolePrimary {
				if tried[a.Server] {
					return "", false
				}
				return a.Server, true
			}
		}
		return "", false
	}
	// Reads: sort candidates by latency from the client's region, break
	// ties randomly to spread load.
	type cand struct {
		srv shard.ServerID
		lat time.Duration
		tie uint64
	}
	cands := make([]cand, 0, len(replicas))
	for _, a := range replicas {
		if tried[a.Server] {
			continue
		}
		lat := c.fleet.Latency(c.Region, c.net.Region(rpcnet.Endpoint(a.Server)))
		cands = append(cands, cand{srv: a.Server, lat: lat, tie: c.rng.Uint64()})
	}
	if len(cands) == 0 {
		return "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lat != cands[j].lat {
			return cands[i].lat < cands[j].lat
		}
		return cands[i].tie < cands[j].tie
	})
	return cands[0].srv, true
}
