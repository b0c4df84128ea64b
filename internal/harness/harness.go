// Package harness regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated testbed: one Spec per experiment
// (Specs), each rendering the rows the paper plots. Absolute numbers
// come from the calibrated latency model (DESIGN.md §5); the comparisons —
// who wins, by what factor, where the crossovers sit — are the
// reproduction targets.
package harness

import (
	"fmt"

	"pmnet"
	"pmnet/internal/apps"
	"pmnet/internal/arrival"
	"pmnet/internal/kv"
	"pmnet/internal/netsim"
	"pmnet/internal/openloop"
	"pmnet/internal/pmobj"
	"pmnet/internal/rediskv"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/trace"
	"pmnet/internal/workload"
)

// Workload identifies a server application + generator pairing from the
// paper's Table of workloads (§VI-A2).
type Workload string

// The paper's workloads.
const (
	WLBTree    Workload = "btree"
	WLCTree    Workload = "ctree"
	WLRBTree   Workload = "rbtree"
	WLHashmap  Workload = "hashmap"
	WLSkiplist Workload = "skiplist"
	WLRedis    Workload = "redis"
	WLTwitter  Workload = "twitter"
	WLTPCC     Workload = "tpcc"
	WLIdeal    Workload = "ideal" // §VI-B1 microbenchmark handler
)

// AllWorkloads lists the application workloads of Figure 19.
var AllWorkloads = []Workload{
	WLBTree, WLCTree, WLRBTree, WLHashmap, WLSkiplist, WLRedis, WLTwitter, WLTPCC,
}

// UpdateRatioUnset is the sentinel for "no update ratio specified": Run
// substitutes the paper's all-update default of 1.0. An explicit 0 requests
// a read-only run.
const UpdateRatioUnset = -1.0

// RunConfig describes one experiment run.
type RunConfig struct {
	Design   pmnet.Design
	Workload Workload
	Clients  int
	Requests int // completed requests per client (after warmup)
	Warmup   int // discarded leading requests per client
	// UpdateRatio is the fraction of requests that are updates, in [0, 1].
	// 0 is a real value — a read-only run. Negative means "unset" and is
	// replaced by the paper's all-update default of 1.0 (UpdateRatioUnset).
	// Earlier versions conflated 0 with unset and silently rewrote it to
	// 1.0, making read-only runs impossible.
	UpdateRatio float64
	ValueSize   int
	Zipfian     bool
	CacheSize   int // in-network read cache entries (0 = off)
	Replication int
	Stacks      pmnet.StackKind
	Seed        uint64
	Keys        int // keyspace (prefilled before measuring)
	// CrossTrafficGbps injects background traffic toward the server for the
	// duration of the run (tail-contention extension experiment).
	CrossTrafficGbps float64
	// Trace, when non-nil, is bound to the run's testbed and records the
	// request-lifecycle event stream (pmnetsim -trace). One tracer per run.
	Trace *trace.Tracer
	// Shards is pmnet.Config.Shards: ≥ 1 partitions the testbed and drives
	// it with this many engine shards (results byte-identical for every
	// Shards ≥ 1); 0 runs it as one partition on one engine.
	Shards int

	// Open-loop mode, selected by OfferedLoad > 0: instead of Clients
	// closed loops issuing Requests each, arrivals are generated at
	// OfferedLoad requests/s of virtual time for Duration, multiplexing
	// Users logical user sessions over the client transports
	// (internal/openloop). Clients still sets the transport count — the
	// offered load and user range are split evenly across them — and
	// Requests/Warmup are ignored in favor of Duration/WarmupDur.
	OfferedLoad float64  // aggregate user actions per second (> 0 = open loop)
	Duration    sim.Time // arrival horizon; default 50 ms
	WarmupDur   sim.Time // measurement window opens here; default Duration/5
	Users       int      // logical user population; default 100000
	// Arrival shapes the process (Kind, burst/diurnal/flash parameters);
	// Rate is derived from OfferedLoad and must be left zero.
	Arrival arrival.Config
	// ArrivalTrace, when set, replays a recorded arrival-timestamp file
	// (arrival.ReadTraceFile format) instead of a synthetic process: client
	// i of n replays the file's timestamps i, i+n, i+2n, … . Selects
	// open-loop mode by itself; mutually exclusive with OfferedLoad, and
	// Arrival must stay zero.
	ArrivalTrace string
	// MaxInFlight caps concurrently active user actions across all clients
	// (excess arrivals are shed, not queued); default 1024.
	MaxInFlight int
	// RetryBackoff enables capped exponential retransmission backoff on the
	// client sessions (pmnet.Config.RetryBackoff) — used by the open-loop
	// experiment so past-knee behavior measures queueing, not a fixed-period
	// retransmission storm.
	RetryBackoff bool

	// Topology selects the switch fabric between the clients and the server
	// rack: "" or "star" (default), "leaf-spine", "fat-tree". Leaves/Spines/
	// Oversub parameterize leaf-spine; FatTreeK the fat-tree arity.
	Topology string
	Leaves   int
	Spines   int
	Oversub  float64
	FatTreeK int

	// Impair applies deterministic link impairments to the client access
	// links (pmnet.Config.Impair); ImpairAckPath restricts them to the
	// ACK-carrying edge→client direction.
	Impair        netsim.Impairments
	ImpairAckPath bool

	// Timeout overrides the client retransmission timeout (default 1 ms) —
	// impairment scenarios shrink it so loss-recovery fits the run window.
	Timeout sim.Time
}

// parseTopology maps the RunConfig topology string to the testbed enum.
func parseTopology(s string) (pmnet.TopologyKind, error) {
	switch s {
	case "", "star":
		return pmnet.StarTopology, nil
	case "leaf-spine":
		return pmnet.LeafSpineTopology, nil
	case "fat-tree":
		return pmnet.FatTreeTopology, nil
	}
	return 0, fmt.Errorf("harness: unknown topology %q (star, leaf-spine, fat-tree)", s)
}

func (c *RunConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Requests <= 0 {
		c.Requests = 300
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.Keys <= 0 {
		c.Keys = 2000
	}
	if c.UpdateRatio < 0 {
		c.UpdateRatio = 1.0
	}
	if c.OfferedLoad > 0 || c.ArrivalTrace != "" {
		if c.Duration <= 0 {
			c.Duration = 50 * sim.Millisecond
		}
		if c.WarmupDur <= 0 {
			c.WarmupDur = c.Duration / 5
		}
		if c.Users <= 0 {
			c.Users = 100000
		}
		if c.MaxInFlight <= 0 {
			c.MaxInFlight = 1024
		}
	}
}

// RunResult aggregates one run.
type RunResult struct {
	Run    *stats.Run
	Driver workload.DriverStats
	Bed    *pmnet.Testbed
	// Open is set on open-loop runs only: arrival/admission accounting plus
	// the merged exact-tail reservoir.
	Open *OpenLoopResult

	arena *pmobj.Arena // the store's arena; nil for the ideal handler
}

// Release hands the run's PM images — the testbed's and the store arena's —
// back to pmem for the next run to draw. Call it once everything needed has
// been read: the testbed and the store cannot run again.
func (r *RunResult) Release() {
	r.Bed.Release()
	if r.arena != nil {
		r.arena.Device().Release()
	}
}

// OpenLoopResult carries the open-loop accounting of a run: the Stats are
// summed across clients (peaks take the max), the Reservoir is the
// deterministic merge of the per-client tail samples.
type OpenLoopResult struct {
	openloop.Stats
	Reservoir *stats.Reservoir
}

// workloadDef is one row of the workload table: everything that differs
// between workloads. server builds the application handler on its arena (nil
// when it keeps no store) plus the prefill run before measurement; gen builds
// what a run's closed-loop request streams share and returns the maker of one
// client's stream; mix is the open loop's action source, shared by every
// client's driver.
type workloadDef struct {
	server serverFunc
	gen    genFunc
	mix    func(cfg *RunConfig) workload.Mix
}

type (
	serverFunc func(cfg *RunConfig) (handler pmnet.Handler, arena *pmobj.Arena, prefill func(), err error)
	genFunc    func(cfg *RunConfig) clientGen
	clientGen  func(clientID int, r *sim.Rand) workload.Generator
)

var workloads = map[Workload]workloadDef{
	WLIdeal:    {idealServer, ycsbGen, kvMix},
	WLRedis:    {redisServer(prefillRedisKeys), ycsbGen, kvMix},
	WLTwitter:  {redisServer(prefillTimelines), twitterGen, twitterMix},
	WLTPCC:     {engineServer(kv.OpenHashmap, 64<<20, prefillStock), tpccGen, tpccMix},
	WLBTree:    {engineServer(kv.OpenBTree, 128<<20, prefillKeys), ycsbGen, kvMix},
	WLCTree:    {engineServer(kv.OpenCTree, 128<<20, prefillKeys), ycsbGen, kvMix},
	WLRBTree:   {engineServer(kv.OpenRBTree, 128<<20, prefillKeys), ycsbGen, kvMix},
	WLHashmap:  {engineServer(kv.OpenHashmap, 128<<20, prefillKeys), ycsbGen, kvMix},
	WLSkiplist: {engineServer(kv.OpenSkiplist, 128<<20, prefillKeys), ycsbGen, kvMix},
}

func idealServer(*RunConfig) (pmnet.Handler, *pmobj.Arena, func(), error) {
	return pmnet.IdealHandler{}, nil, func() {}, nil
}

// engineServer serves one PMDK-style engine on an arena of the given size.
func engineServer(open kv.Factory, arenaBytes int, prefill func(*RunConfig, kv.Engine)) serverFunc {
	return func(cfg *RunConfig) (pmnet.Handler, *pmobj.Arena, func(), error) {
		arena := kv.NewArena(arenaBytes)
		engine, err := open(arena)
		if err != nil {
			return nil, nil, nil, err
		}
		return apps.NewKVHandler(engine, arena), arena, func() { prefill(cfg, engine) }, nil
	}
}

// The prefills panic on a store error: an arena too small must not report a
// cell over fewer keys than it was asked for. Put and Set copy the value into
// PM, so every key of one prefill shares one value buffer.

func prefillKeys(cfg *RunConfig, engine kv.Engine) {
	value := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.Keys; i++ {
		if err := engine.Put(workload.YCSBKey(i), value); err != nil {
			panic(err)
		}
	}
}

func prefillStock(_ *RunConfig, engine kv.Engine) {
	value := []byte("100")
	for wh := 0; wh < 4; wh++ {
		for it := 0; it < 1000; it++ {
			if err := engine.Put([]byte(fmt.Sprintf("tpcc:stock:%d:%d", wh, it)), value); err != nil {
				panic(err)
			}
		}
	}
}

// redisServer serves the Redis command subset on a fresh store.
func redisServer(prefill func(*RunConfig, *rediskv.Store)) serverFunc {
	return func(cfg *RunConfig) (pmnet.Handler, *pmobj.Arena, func(), error) {
		arena := kv.NewArena(64 << 20)
		store, err := rediskv.Open(arena)
		if err != nil {
			return nil, nil, nil, err
		}
		return apps.NewRedisHandler(store, arena), arena, func() { prefill(cfg, store) }, nil
	}
}

func prefillRedisKeys(cfg *RunConfig, store *rediskv.Store) {
	value := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.Keys; i++ {
		if err := store.Set(workload.YCSBKey(i), value); err != nil {
			panic(err)
		}
	}
}

// prefillTimelines seeds timelines and a few posts so Twitter reads hit data.
func prefillTimelines(_ *RunConfig, store *rediskv.Store) {
	users := 1000
	post := []byte("seed post")
	for u := 0; u < users; u += 7 {
		if err := store.Set([]byte(fmt.Sprintf("post:c%d-1", u)), post); err != nil {
			panic(err)
		}
		if _, err := store.LPush([]byte(fmt.Sprintf("timeline:%d", u)), []byte(fmt.Sprintf("c%d-1", u)), 100); err != nil {
			panic(err)
		}
	}
	if err := store.Set([]byte("post:latest"), []byte("latest")); err != nil {
		panic(err)
	}
}

// ycsbGen builds one YCSB factory per run: a zipfian table is an n-term sum,
// and every client of the run draws from the same keyspace.
func ycsbGen(cfg *RunConfig) clientGen {
	f := workload.NewYCSBFactory(workload.YCSBConfig{
		Keys:        cfg.Keys,
		UpdateRatio: cfg.UpdateRatio,
		ValueSize:   cfg.ValueSize,
		Zipfian:     cfg.Zipfian,
	})
	return func(_ int, r *sim.Rand) workload.Generator { return f.New(r) }
}

func kvMix(cfg *RunConfig) workload.Mix {
	return workload.NewKVMix(cfg.Keys, cfg.ValueSize, cfg.UpdateRatio)
}

// A closed-loop Twitter run has 1000 users, the population prefillTimelines
// seeds; an open-loop one has the run's logical users.
func twitterGen(cfg *RunConfig) clientGen {
	tc := workload.TwitterConfig{Users: 1000, UpdateRatio: cfg.UpdateRatio, PostLen: cfg.ValueSize}
	return func(clientID int, r *sim.Rand) workload.Generator { return workload.NewTwitter(r, clientID, tc) }
}

func twitterMix(cfg *RunConfig) workload.Mix {
	return workload.NewTwitterMix(workload.TwitterConfig{
		Users: cfg.Users, UpdateRatio: cfg.UpdateRatio, PostLen: cfg.ValueSize})
}

func tpccGen(cfg *RunConfig) clientGen {
	tc := workload.TPCCConfig{UpdateRatio: cfg.UpdateRatio}
	return func(clientID int, r *sim.Rand) workload.Generator { return workload.NewTPCC(r, clientID, tc) }
}

func tpccMix(cfg *RunConfig) workload.Mix {
	return workload.NewTPCCMix(workload.TPCCConfig{UpdateRatio: cfg.UpdateRatio})
}

// Run executes one experiment run and returns the merged statistics.
func Run(cfg RunConfig) (*RunResult, error) {
	cfg.defaults()
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", cfg.Workload)
	}
	handler, arena, prefill, err := wl.server(&cfg)
	if err != nil {
		return nil, err
	}
	topo, err := parseTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	bed := pmnet.NewTestbed(pmnet.Config{
		Design:           cfg.Design,
		Clients:          cfg.Clients,
		Seed:             cfg.Seed,
		Replication:      cfg.Replication,
		CacheEntries:     cfg.CacheSize,
		Stacks:           cfg.Stacks,
		Handler:          handler,
		CrossTrafficGbps: cfg.CrossTrafficGbps,
		Trace:            cfg.Trace,
		Shards:           cfg.Shards,
		RetryBackoff:     cfg.RetryBackoff,
		Timeout:          cfg.Timeout,
		Topology:         topo,
		Leaves:           cfg.Leaves,
		Spines:           cfg.Spines,
		Oversub:          cfg.Oversub,
		FatTreeK:         cfg.FatTreeK,
		Impair:           cfg.Impair,
		ImpairAckPath:    cfg.ImpairAckPath,
		WorkerBudget:     sharedBudget,
	})
	prefill()
	var res *RunResult
	if cfg.OfferedLoad > 0 || cfg.ArrivalTrace != "" {
		res, err = runOpenLoop(&cfg, bed, wl.mix(&cfg))
	} else {
		res, err = runClosedLoop(&cfg, bed, wl.gen(&cfg))
	}
	if err != nil {
		return nil, err
	}
	res.arena = arena
	return res, nil
}

// partSlot is the private measurement state of one topology partition's
// clients. Clients of a partition share an engine, and so a worker goroutine,
// so during bed.Run() a slot has one writer; it is read only after Run
// returns (the runner's join provides the happens-before edge). One slot per
// partition rather than per client keeps a 64-client run to a handful of
// 16 KB histograms.
type partSlot struct {
	run *stats.Run
	st  workload.DriverStats
}

// partCountdown counts a testbed's unfinished clients per topology partition
// — same single-writer discipline as partSlot — and stops the background
// cross-traffic generator when a partition's last client finishes, so the
// event queue can drain. A testbed with cross-traffic has one partition, so
// that client is the run's last and the stop lands at one deterministic point
// of one engine's event order; without cross-traffic the stop is a no-op.
type partCountdown struct {
	bed  *pmnet.Testbed
	left []int
}

func newPartCountdown(bed *pmnet.Testbed) *partCountdown {
	c := &partCountdown{bed: bed, left: make([]int, bed.Partitions())}
	for i := range bed.Clients {
		c.left[bed.ClientPartition(i)]++
	}
	return c
}

// done marks client i finished. Called on that client's engine.
func (c *partCountdown) done(i int) {
	p := c.bed.ClientPartition(i)
	if c.left[p]--; c.left[p] == 0 {
		c.bed.StopBackground()
	}
}

// unfinished returns the clients that never finished. Read after bed.Run().
func (c *partCountdown) unfinished() int {
	n := 0
	for _, l := range c.left {
		n += l
	}
	return n
}

// runClosedLoop wires one closed-loop driver per client, each on its own
// client's engine, recording into its partition's slot with timestamps from
// that engine's clock. A partition's measurement window opens at the issue
// time of its first measured completion; the run's window opens at the
// earliest of those — a min over per-partition values, so it cannot depend
// on how partitions interleave across engines. Slots merge in partition
// order after bed.Run() returns. With one partition (the default) that is
// one histogram recorded in global event order.
func runClosedLoop(cfg *RunConfig, bed *pmnet.Testbed, gen clientGen) (*RunResult, error) {
	rootRand := sim.NewRand(cfg.Seed + 77)
	slots := make([]partSlot, bed.Partitions())
	clients := newPartCountdown(bed)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		s := &slots[bed.ClientPartition(i)]
		if s.run == nil {
			s.run = stats.NewRun(0)
		}
		eng := bed.Clients[i].Engine()
		seen := 0
		d := &workload.Driver{
			Sess: bed.Session(i),
			Gen:  gen(i, rootRand.Fork()),
			Record: func(lat sim.Time, op workload.Op) {
				seen++
				if seen <= cfg.Warmup {
					return
				}
				if s.run.Requests == 0 {
					s.run.Start = eng.Now() - lat // measurement window opens post-warmup
				}
				s.run.Record(lat, eng.Now())
			},
		}
		d.Run(eng, uint64(cfg.Requests+cfg.Warmup), func(st workload.DriverStats) {
			s.st.Merge(st)
			clients.done(i)
		})
	}
	bed.Run()

	if n := clients.unfinished(); n != 0 {
		return nil, fmt.Errorf("harness: %d clients never finished (deadlock?)", n)
	}
	// The first slot that measured anything becomes the result; the others
	// fold into it.
	res := &RunResult{Bed: bed}
	for i := range slots {
		s := &slots[i]
		res.Driver.Merge(s.st)
		switch {
		case s.run == nil || s.run.Requests == 0:
		case res.Run == nil:
			res.Run = s.run
		default:
			if s.run.Start < res.Run.Start {
				res.Run.Start = s.run.Start
			}
			if s.run.End > res.Run.End {
				res.Run.End = s.run.End
			}
			res.Run.Requests += s.run.Requests
			res.Run.Hist.Merge(s.run.Hist)
		}
	}
	if res.Run == nil {
		res.Run = stats.NewRun(0)
	}
	return res, nil
}

// mustRun panics on error: experiments treat setup failure as fatal.
func mustRun(cfg RunConfig) *RunResult {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// helpers for formatting ----------------------------------------------------

func us(t sim.Time) string { return fmt.Sprintf("%.2f", t.Micros()) }

func ratio(a, b float64) string { return fmt.Sprintf("%.2fx", a/b) }
