package pmnet

import (
	"fmt"

	"pmnet/internal/client"
	"pmnet/internal/dataplane"
	"pmnet/internal/netsim"
	"pmnet/internal/server"
	"pmnet/internal/sim"
	"pmnet/internal/sim/pdes"
	"pmnet/internal/trace"
)

// Config describes a simulated testbed. The zero value is completed with
// paper-calibrated defaults by NewTestbed.
type Config struct {
	Design  Design
	Clients int // client machines (each runs one session); default 1
	Seed    uint64

	// Servers builds a rack with this many servers behind the same PMNet
	// device chain (a ToR serves the whole rack); sessions are assigned
	// round-robin. Default 1. Every server runs its own copy of Handler via
	// HandlerFactory when set; with a plain Handler all servers share it.
	Servers int
	// HandlerFactory builds one handler per server (overrides Handler when
	// set); required when Servers > 1 and the handler holds state.
	HandlerFactory func(i int) Handler

	// Replication chains this many PMNet devices in series between the
	// clients and the server (§IV-C). 0 or 1 = a single device. Ignored for
	// ClientServer.
	Replication int

	// CacheEntries enables the in-network read cache on the device closest
	// to the server (§IV-D) when positive.
	CacheEntries int

	// Stacks selects kernel or bypass (libVMA-style) host stacks.
	Stacks StackKind

	// ServerWorkers is the server's CPU worker count; default 16 (the
	// paper's server has 20 cores).
	ServerWorkers int

	// Handler is the server request handler; default IdealHandler{}.
	Handler Handler

	// Link overrides the 10 GbE link model when non-zero.
	Link netsim.LinkConfig

	// Device overrides the PMNet device configuration (cache entries are
	// still governed by CacheEntries).
	Device dataplane.Config

	// Timeout is the client retransmission timeout; default 1 ms.
	Timeout Time

	// RetryBackoff enables capped exponential backoff on client
	// retransmission (retry k waits Timeout·2^k, capped at BackoffCap,
	// default 32×Timeout). Off by default: the fixed-timeout schedule is
	// pinned by existing golden outputs. Open-loop overload experiments turn
	// it on so the region past the knee measures queueing, not a
	// fixed-period retransmission storm.
	RetryBackoff bool
	BackoffCap   Time

	// LossRate injects random packet loss on every link (for protocol
	// robustness experiments).
	LossRate float64

	// Topology selects the switch fabric between the client machines and the
	// server rack's ToR. The default star attaches every client directly to
	// the ToR (the paper's testbed); leaf-spine and fat-tree insert a
	// generated multi-switch fabric with deterministic ECMP flow hashing when
	// it has equal-cost multipaths. Leaves/Spines/Oversub parameterize
	// leaf-spine (netsim.LeafSpine); FatTreeK is the fat-tree arity
	// (netsim.FatTree).
	Topology TopologyKind
	Leaves   int
	Spines   int
	Oversub  float64
	FatTreeK int

	// Impair applies deterministic netem-style impairments (Gilbert–Elliott
	// burst loss, lognormal jitter, bounded reordering, duplication,
	// token-bucket rate shaping) to the client access links, each direction
	// drawing from its own per-link forked RNG stream. ImpairAckPath scopes
	// them to the edge→client direction only — the path PMNet's early ACKs
	// travel — leaving the request direction clean.
	Impair        netsim.Impairments
	ImpairAckPath bool

	// CrossTrafficGbps injects Poisson background traffic from a noise host
	// on the ToR toward the server at this rate, contending for the
	// server-side links and switch queues — the shared-network tail-latency
	// source of §I. The noise host and its link are ordinary entries of the
	// cluster description; a cluster that has them is planned as one
	// partition whatever Shards says (see cluster.plan). Stop the generator
	// with StopBackground once the workload completes (otherwise the event
	// queue never drains); harness.Run does.
	CrossTrafficGbps float64

	// Trace, when non-nil, records every request-lifecycle event and gauge
	// sample into the tracer's ring. The tracer is bound to the testbed's
	// engine by NewTestbed (a tracer serves exactly one testbed); nil keeps
	// the hot paths on their zero-alloc untraced fast path. With several
	// topology partitions each records into its own sub-tracer and Run folds
	// them into this one in a shard-count-invariant order.
	Trace *trace.Tracer

	// Shards sets how the one execution path — a partitioned netsim.Fabric
	// driven in lookahead-bounded epochs by internal/sim/pdes — is laid out.
	// 0, the default, plans the whole cluster as one partition on one
	// engine: no link is cut and no handoff queue exists, so events fire in
	// plain (time, scheduling) order. Shards ≥ 1 cuts the cluster at its
	// highest-latency links into up to 12 partitions — a pure function of the
	// configuration, never of the shard count — assigns them round-robin to
	// this many sim.Engine shards (at most one per partition) and runs the
	// shards on a bounded worker pool. Results are deterministic and
	// byte-identical for every Shards ≥ 1; they differ statistically from
	// Shards == 0, because every partition draws from its own RNG stream and
	// same-instant events of different partitions run in the handoff queues'
	// merge order rather than one engine's scheduling order.
	Shards int

	// WorkerBudget, when non-nil, is consulted on every Run/RunFor: the run
	// asks for one extra worker token per engine shard beyond its first
	// (non-blocking), drives the epoch loop with 1+granted workers, and
	// returns the tokens when the segment completes. internal/harness
	// installs its process-wide core budget here so parallel experiment
	// cells and shard worker pools share one machine without
	// oversubscribing it. Worker count never affects results — only wall
	// clock (DESIGN.md §10.6).
	WorkerBudget WorkerBudget
}

// TopologyKind selects the switch fabric between the clients and the rack.
type TopologyKind int

const (
	// StarTopology is the classic single-ToR star (the paper's testbed).
	StarTopology TopologyKind = iota
	// LeafSpineTopology inserts a two-tier leaf–spine fabric between the
	// clients and the rack ToR (netsim.LeafSpine).
	LeafSpineTopology
	// FatTreeTopology inserts a k-ary fat-tree fabric (netsim.FatTree).
	FatTreeTopology
)

// fabricTopology generates the switch fabric between the clients and the
// rack ToR for non-star topologies; ok is false for the default star.
func (cfg *Config) fabricTopology(link netsim.LinkConfig) (topo netsim.Topology, ok bool) {
	switch cfg.Topology {
	case LeafSpineTopology:
		leaves, spines := cfg.Leaves, cfg.Spines
		if leaves < 2 {
			leaves = 2
		}
		if spines < 1 {
			spines = 2
		}
		// Clients spread round-robin over the client-edge leaves.
		hostsPerLeaf := (cfg.Clients + leaves - 2) / (leaves - 1)
		return netsim.LeafSpine(leaves, spines, cfg.Oversub, link, hostsPerLeaf), true
	case FatTreeTopology:
		k := cfg.FatTreeK
		if k < 2 {
			k = 4
		}
		return netsim.FatTree(k, link), true
	}
	return netsim.Topology{}, false
}

// WorkerBudget hands out extra worker tokens from a shared pool. Acquire
// must not block: a run can always proceed on the one worker it implicitly
// owns.
type WorkerBudget interface {
	// Acquire returns up to want tokens (possibly 0) without blocking.
	Acquire(want int) int
	// Release returns n previously acquired tokens.
	Release(n int)
}

// applyDefaults completes cfg with the paper-calibrated defaults, returning
// the resolved link model.
func (cfg *Config) applyDefaults() netsim.LinkConfig {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.ServerWorkers <= 0 {
		cfg.ServerWorkers = 16
	}
	if cfg.Handler == nil {
		cfg.Handler = IdealHandler{}
	}
	if cfg.HandlerFactory == nil {
		h := cfg.Handler
		cfg.HandlerFactory = func(int) Handler { return h }
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = sim.Millisecond
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	link := cfg.Link
	if link == (netsim.LinkConfig{}) {
		link = netsim.DefaultLink()
	}
	if cfg.LossRate > 0 {
		link.LossRate = cfg.LossRate
	}
	return link
}

// Testbed is a built cluster ready to run on its virtual clock.
//
// Concurrency contract: a Testbed is driven by one goroutine — it builds the
// testbed, calls Run/RunFor, and reads the results — but distinct Testbeds
// are fully independent and may run concurrently (internal/harness executes
// experiment cells on a worker pool). Every piece of mutable state (event
// engines, virtual clocks, PRNG streams, arenas, queues) is allocated per
// testbed in NewTestbed; the only package-level state any of it touches
// (engine factories, calibrated latency models, error sentinels) is written
// once at init and read-only afterwards — but for pmem's free list of released
// device images, which hands Release'd memory, zeroed, to a later NewDevice
// and so carries no content between testbeds. Nothing here reads wall-clock time,
// so scheduling order across testbeds cannot leak into results: a run's
// output is a pure function of its Config (and so of the seed baked into it).
type Testbed struct {
	Sessions []*client.Session
	Clients  []*netsim.Host
	Server   *server.Server      // the first (or only) server
	Servers  []*server.Server    // every server in the rack
	Devices  []*dataplane.Device // empty for ClientServer
	ToR      *netsim.Switch      // the plain switch merging client traffic

	// FabricSwitches are the generated-topology switches (leaf-spine /
	// fat-tree), in generator order; empty for the default star.
	FabricSwitches []*netsim.Switch

	cross *netsim.CrossTraffic
	cfg   Config

	// Every testbed is a partitioned fabric (one partition by default)
	// driven by an epoch runner over its engines.
	fab         *netsim.Fabric
	runner      *pdes.Runner
	engines     []*sim.Engine
	partTracers []*trace.Tracer
}

// NewTestbed builds the cluster described by cfg: the cluster is listed once
// (describeCluster), planned into partitions, and instantiated over a
// netsim.Fabric whose engines a pdes.Runner drives.
func NewTestbed(cfg Config) *Testbed {
	link := cfg.applyDefaults()
	cl := describeCluster(&cfg, link)
	plan := cl.plan(&cfg)

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > plan.NParts {
		shards = plan.NParts // extra engines would sit empty at every epoch
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	assign := make([]int, plan.NParts)
	for i := range assign {
		assign[i] = i % shards
	}
	root := sim.NewRand(cfg.Seed + 1)
	fab := netsim.NewFabric(engines, assign, root)
	tb := &Testbed{cfg: cfg, fab: fab, engines: engines}

	// Tracers are set before any layer is built: hosts, devices, servers and
	// sessions cache their network's tracer at construction time. One
	// partition records straight into cfg.Trace; several record into
	// per-partition tracers sized so the fleet's total ring matches the
	// parent's capacity (the split is a function of the partition count, so a
	// partition's drop behavior is shard-count-invariant) and Run folds them.
	if cfg.Trace != nil {
		if plan.NParts == 1 {
			cfg.Trace.Bind(engines[0])
			fab.Part(0).SetTracer(cfg.Trace)
		} else {
			partCap := cfg.Trace.Capacity() / plan.NParts
			if partCap < 1 {
				partCap = 1
			}
			tb.partTracers = make([]*trace.Tracer, plan.NParts)
			for i := range tb.partTracers {
				t := trace.NewTracer(partCap)
				t.Bind(engines[assign[i]])
				fab.Part(i).SetTracer(t)
				tb.partTracers[i] = t
			}
		}
	}

	clientStack := netsim.ClientKernelStack
	serverStack := netsim.ServerKernelStack
	if cfg.Stacks == BypassStack {
		clientStack = netsim.BypassStack
		serverStack = netsim.BypassStack
	}

	var serverHosts []*netsim.Host
	var devIDs []netsim.NodeID
	var noise *netsim.Network
	for _, n := range cl.nodes {
		net := fab.Part(plan.Part[n.id])
		switch n.kind {
		case serverNode:
			serverHosts = append(serverHosts,
				netsim.NewHost(net, n.id, n.name, serverStack, cfg.ServerWorkers, root.Fork()))
		case switchNode:
			sw := netsim.NewSwitch(net, n.id, n.name, netsim.DefaultSwitchLatency)
			if n.id == torID {
				tb.ToR = sw
			} else {
				tb.FabricSwitches = append(tb.FabricSwitches, sw)
			}
		case clientNode:
			tb.Clients = append(tb.Clients, netsim.NewHost(net, n.id, n.name, clientStack, 1, root.Fork()))
		case deviceNode:
			dc := cfg.Device
			if cfg.CacheEntries > 0 && len(devIDs) == cfg.Replication-1 {
				// Cache on the device adjacent to the server (its ToR in the
				// paper's caching deployment).
				dc.CacheEntries = cfg.CacheEntries
			}
			tb.Devices = append(tb.Devices, dataplane.New(net, n.id, n.name, dc))
			devIDs = append(devIDs, n.id)
		case noiseNode:
			netsim.NewHost(net, n.id, n.name, clientStack, 1, root.Fork())
			noise = net
		}
	}
	for _, l := range cl.links {
		fab.ConnectAsym(l.a, l.b, l.ab, l.ba)
	}
	if cl.ecmp {
		fab.SetECMP(true)
	}

	// Server libraries. Handlers that own persistent state (the KV and
	// Redis handlers) implement crash/restart hooks so they crash and recover
	// in lockstep with their server.
	for i, host := range serverHosts {
		h := cfg.HandlerFactory(i)
		srvCfg := server.Config{Devices: devIDs}
		// Walk the Unwrap chain: decorators (e.g. checker.WrapHandler) must
		// not hide the inner handler's crash hooks.
		if ch, ok := server.As[CrashFaultHandler](h); ok {
			srvCfg.OnCrash = ch.Crash
			srvCfg.OnRestart = ch.Restart
		}
		tb.Servers = append(tb.Servers, server.New(host, h, srvCfg))
	}
	tb.Server = tb.Servers[0]

	// Background cross-traffic: the noise host blasting toward the server.
	if noise != nil {
		tb.cross = netsim.NewCrossTraffic(noise, root.Fork(), noiseID, serverID,
			1400, cfg.CrossTrafficGbps*1e9, 1)
		tb.cross.Start()
	}

	// Client sessions.
	mode := client.ModeBaseline
	required := 0
	if cfg.Design != ClientServer {
		mode = client.ModePMNet
		required = cfg.Replication
	}
	for i, h := range tb.Clients {
		sess := client.New(h, client.Config{
			Session:      uint16(i + 1),
			Server:       serverID + netsim.NodeID(i%cfg.Servers),
			Mode:         mode,
			RequiredAcks: required,
			Timeout:      cfg.Timeout,
			Backoff:      cfg.RetryBackoff,
			BackoffCap:   cfg.BackoffCap,
		})
		tb.Sessions = append(tb.Sessions, sess)
	}

	fab.Freeze()
	runnerShards := make([]pdes.Shard, shards)
	for s := range runnerShards {
		runnerShards[s] = pdes.Shard{
			Eng:        engines[s],
			Begin:      fab.BeginFunc(s),
			Drain:      fab.DrainFunc(s),
			PendingOut: fab.PendingOutFunc(s),
		}
	}
	tb.runner = pdes.New(runnerShards, fab.Lookahead(), shards)
	tb.runner.SetQuiesce(fab.Quiesce)
	return tb
}

// Session returns the i-th client session (Table I: PMNet_start_session is
// performed by NewTestbed; this accessor hands the session to the
// application).
func (tb *Testbed) Session(i int) *client.Session { return tb.Sessions[i] }

// Run drives the virtual clock until no events remain.
func (tb *Testbed) Run() {
	tb.runSegment(tb.runner.Run)
}

// RunFor advances the virtual clock by d.
func (tb *Testbed) RunFor(d Time) {
	tb.runSegment(func() { tb.runner.RunUntil(tb.runner.Now() + d) })
}

// runSegment drives one run segment under the worker budget: the segment
// always owns one worker; extra workers are borrowed for its duration when
// the budget has them to spare. Without a budget the runner keeps the worker
// pool New sized to the shard count. Afterwards the per-partition tracers, if
// any, are merged into cfg.Trace (AdoptMerged recomputes from scratch, so
// repeated Run/RunFor calls stay correct).
func (tb *Testbed) runSegment(segment func()) {
	if b := tb.cfg.WorkerBudget; b != nil {
		got := b.Acquire(len(tb.engines) - 1)
		tb.runner.SetWorkers(1 + got)
		segment()
		b.Release(got)
	} else {
		segment()
	}
	if len(tb.partTracers) > 0 {
		tb.cfg.Trace.AdoptMerged(tb.partTracers)
	}
}

// Now returns the current virtual time.
func (tb *Testbed) Now() Time { return tb.runner.Now() }

// RunnerPerf returns the epoch runner's wall-clock-class telemetry. Epochs is
// deterministic; BarrierNs and IdleSkips are not, and must never feed the
// byte-compared counter registry.
func (tb *Testbed) RunnerPerf() pdes.PerfStats { return tb.runner.Perf() }

// Shards returns the engine count: 1 unless Config.Shards asked for more and
// the plan has the partitions to feed them.
func (tb *Testbed) Shards() int { return len(tb.engines) }

// Partitions returns the topology partition count: 1 at Shards == 0 or with
// cross-traffic, otherwise a function of the cluster alone — the same for
// every Shards ≥ 1.
func (tb *Testbed) Partitions() int { return tb.fab.Parts() }

// ClientPartition returns the partition client i was planned into. Clients
// of one partition always share an engine (and so a worker goroutine).
func (tb *Testbed) ClientPartition(i int) int { return tb.fab.Owner(tb.Clients[i].ID()) }

// EventsRun returns the events executed across the whole testbed. The total
// is deterministic and identical in every shard configuration: sharding
// relocates events between engines, it never adds or removes any.
func (tb *Testbed) EventsRun() uint64 { return tb.runner.EventsRun() }

// NetworkStats returns delivery counters summed across the whole fabric.
func (tb *Testbed) NetworkStats() netsim.Stats { return tb.fab.Stats() }

// CrashServer power-fails the server (§VI-B6's pulled power cord).
func (tb *Testbed) CrashServer() { tb.Server.Crash() }

// RecoverServer restarts the server and triggers the PMNet recovery poll.
func (tb *Testbed) RecoverServer() { tb.Server.Recover() }

// Config returns the testbed configuration (with defaults applied).
func (tb *Testbed) Config() Config { return tb.cfg }

// StopBackground halts the cross-traffic generator so the event queue can
// drain. Safe to call when no background traffic was configured.
func (tb *Testbed) StopBackground() {
	if tb.cross != nil {
		tb.cross.Stop()
	}
}

// NodeName resolves a traced node id to its testbed name ("client-0", "tor",
// "pmnet-1", ...) — the naming callback for trace.Tracer.ChromeJSON.
func (tb *Testbed) NodeName(id uint64) string {
	return tb.fab.Part(0).Name(netsim.NodeID(id)) // one name table spans all partitions
}

// Release ends the testbed's life by handing its PM images — every device's
// log and every server's meta region — back to pmem for the next testbed to
// draw (pmem.Device.Release). Read results, counters and logs first: the
// testbed cannot run again.
func (tb *Testbed) Release() {
	for _, d := range tb.Devices {
		d.PM().Release()
	}
	for _, s := range tb.Servers {
		s.Meta().Release()
	}
}

// Counters builds the unified metrics registry over every layer of the
// testbed: the counters previously scattered across netsim/client/server/
// dataplane Stats structs, plus the live log-occupancy gauge and the
// event-engine progress counter. Getters are evaluated at
// Snapshot time, so one registry can be snapshotted repeatedly as the run
// advances. Client and server counters are summed across sessions/rack
// members; device counters are per chain position (dev0 is client-adjacent).
func (tb *Testbed) Counters() *trace.Registry {
	reg := &trace.Registry{}
	reg.Add("engine.events", tb.EventsRun)
	reg.Add("net.delivered", func() uint64 { return tb.NetworkStats().Delivered })
	reg.Add("net.dropped_full", func() uint64 { return tb.NetworkStats().DroppedFull })
	reg.Add("net.dropped_rand", func() uint64 { return tb.NetworkStats().DroppedRand })
	reg.Add("net.dropped_dead", func() uint64 { return tb.NetworkStats().DroppedDead })
	reg.Add("net.dropped_burst", func() uint64 { return tb.NetworkStats().DroppedBurst })
	reg.Add("net.duplicated", func() uint64 { return tb.NetworkStats().Duplicated })
	// Partition count is a pure function of the topology — identical at
	// every shard count — so it is safe in the byte-compared counters (the
	// shard count itself is not, and lives in the perf block).
	parts := uint64(tb.fab.Parts())
	reg.Add("sim.partitions", func() uint64 { return parts })
	// Epoch count and mean events per epoch are pure functions of the global
	// event set and the partition structure — invariant across shard AND
	// worker counts — so they are registry-safe. Barrier wait time and idle
	// skips are not (wall clock / shard structure) and stay in RunnerPerf.
	reg.Add("sim.epochs", func() uint64 { return tb.runner.Perf().Epochs })
	reg.Add("sim.events_per_epoch", func() uint64 {
		if e := tb.runner.Perf().Epochs; e > 0 {
			return tb.runner.EventsRun() / e
		}
		return 0
	})

	sessions := tb.Sessions
	sumClient := func(pick func(client.Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, s := range sessions {
				n += pick(s.Stats())
			}
			return n
		}
	}
	reg.Add("client.updates_sent", sumClient(func(s client.Stats) uint64 { return s.UpdatesSent }))
	reg.Add("client.bypass_sent", sumClient(func(s client.Stats) uint64 { return s.BypassSent }))
	reg.Add("client.completed", sumClient(func(s client.Stats) uint64 { return s.Completed }))
	reg.Add("client.failed", sumClient(func(s client.Stats) uint64 { return s.Failed }))
	reg.Add("client.resends", sumClient(func(s client.Stats) uint64 { return s.Resends }))
	reg.Add("client.pmnet_acks", sumClient(func(s client.Stats) uint64 { return s.PMNetAcks }))
	reg.Add("client.server_acks", sumClient(func(s client.Stats) uint64 { return s.ServerAcks }))
	reg.Add("client.cache_hits", sumClient(func(s client.Stats) uint64 { return s.CacheHits }))
	reg.Add("client.retrans_served", sumClient(func(s client.Stats) uint64 { return s.RetransServed }))

	servers := tb.Servers
	sumServer := func(pick func(server.Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, s := range servers {
				n += pick(s.Stats())
			}
			return n
		}
	}
	reg.Add("server.updates_applied", sumServer(func(s server.Stats) uint64 { return s.UpdatesApplied }))
	reg.Add("server.reads_served", sumServer(func(s server.Stats) uint64 { return s.ReadsServed }))
	reg.Add("server.duplicates", sumServer(func(s server.Stats) uint64 { return s.Duplicates }))
	reg.Add("server.makeup_acks", sumServer(func(s server.Stats) uint64 { return s.MakeupAcks }))
	reg.Add("server.retrans_sent", sumServer(func(s server.Stats) uint64 { return s.RetransSent }))
	reg.Add("server.gaps_abandoned", sumServer(func(s server.Stats) uint64 { return s.GapsAbandoned }))
	reg.Add("server.buffered", sumServer(func(s server.Stats) uint64 { return s.Buffered }))
	reg.Add("server.reordered", sumServer(func(s server.Stats) uint64 { return s.Reordered }))
	reg.Add("server.recoveries", sumServer(func(s server.Stats) uint64 { return s.Recoveries }))
	reg.Add("server.crashes", sumServer(func(s server.Stats) uint64 { return s.Crashes }))

	for i, d := range tb.Devices {
		d := d
		p := fmt.Sprintf("dev%d.", i)
		reg.Add(p+"acks_sent", func() uint64 { return d.Stats().AcksSent })
		reg.Add(p+"forwarded", func() uint64 { return d.Stats().Forwarded })
		reg.Add(p+"retrans_answered", func() uint64 { return d.Stats().RetransAnswered })
		reg.Add(p+"recovery_resends", func() uint64 { return d.Stats().RecoveryResends })
		reg.Add(p+"ttl_resends", func() uint64 { return d.Stats().TTLResends })
		reg.Add(p+"cache_responses", func() uint64 { return d.Stats().CacheResponses })
		reg.Add(p+"cache.hits", func() uint64 { return d.Stats().Cache.Hits })
		reg.Add(p+"cache.misses", func() uint64 { return d.Stats().Cache.Misses })
		reg.Add(p+"cache.fills", func() uint64 { return d.Stats().Cache.Fills })
		reg.Add(p+"cache.evictions", func() uint64 { return d.Stats().Cache.Evictions })
		reg.Add(p+"log.logged", func() uint64 { return d.Stats().Log.Logged })
		reg.Add(p+"log.bypassed_collision", func() uint64 { return d.Stats().Log.BypassedCollision })
		reg.Add(p+"log.bypassed_full", func() uint64 { return d.Stats().Log.BypassedFull })
		reg.Add(p+"log.bypassed_oversize", func() uint64 { return d.Stats().Log.BypassedOversize })
		reg.Add(p+"log.invalidated", func() uint64 { return d.Stats().Log.Invalidated })
		reg.Add(p+"log.retrans_hits", func() uint64 { return d.Stats().Log.RetransHits })
		reg.Add(p+"log.retrans_misses", func() uint64 { return d.Stats().Log.RetransMisses })
		reg.Add(p+"log.live", func() uint64 { return uint64(d.Log().LiveEntries()) })
		reg.Add(p+"pm.writes", func() uint64 { return d.PM().Stats().Writes })
		reg.Add(p+"pm.reads", func() uint64 { return d.PM().Stats().Reads })
		reg.Add(p+"pm.persists", func() uint64 { return d.PM().Stats().Persists })
	}

	if tr := tb.cfg.Trace; tr != nil {
		reg.Add("trace.records", func() uint64 { return uint64(tr.Len()) })
		reg.Add("trace.dropped", tr.Dropped)
	}
	return reg
}
