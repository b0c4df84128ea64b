package main

import (
	"fmt"
	"runtime"
	"time"

	"pmnet"
	"pmnet/internal/arrival"
	"pmnet/internal/harness"
	"pmnet/internal/openloop"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/trace"
	"pmnet/internal/workload"
)

// span is one benchmark-owned span, recorded around a call into a layer from
// the seams the public API already offers. Times are host nanoseconds since
// the traced run began. Spans inside the program are a later issue.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spanLog collects the spans of one call site. On the sharded route call
// sites run on different shard workers, so each site owns its log and the
// logs are merged after bed.Run() returns (the run's join orders the reads
// after the writes).
type spanLog struct {
	name  string
	epoch time.Time
	spans []span
}

// record closes a span that began at t0. Every wrapped seam is called from
// inside bed.Run(), so its parent is sim.run.
func (l *spanLog) record(t0 time.Time) {
	l.spans = append(l.spans, span{Name: l.name, Parent: "sim.run",
		Start: int64(t0.Sub(l.epoch)), End: int64(time.Since(l.epoch))})
}

// total is the time the log's spans cover and how many there are.
func (l *spanLog) total() (ns int64, n int) {
	for _, s := range l.spans {
		ns += s.End - s.Start
	}
	return ns, len(l.spans)
}

type spannedHandler struct {
	inner pmnet.Handler
	log   *spanLog
}

func (h spannedHandler) Handle(req protocol.Request) (protocol.Response, sim.Time) {
	t0 := time.Now()
	resp, cost := h.inner.Handle(req)
	h.log.record(t0)
	return resp, cost
}

// Unwrap keeps the inner handler's crash hooks visible to the testbed.
func (h spannedHandler) Unwrap() pmnet.Handler { return h.inner }

type spannedGenerator struct {
	inner workload.Generator
	log   *spanLog
}

func (g spannedGenerator) Next() workload.Op {
	t0 := time.Now()
	op := g.inner.Next()
	g.log.record(t0)
	return op
}

type spannedMix struct {
	inner openloop.Mix
	logs  []*spanLog // one per client, indexed through the user range
	per   int        // users per client
}

func (m spannedMix) Action(r *sim.Rand, uid int, seq uint64, ops []workload.Op) []workload.Op {
	t0 := time.Now()
	ops = m.inner.Action(r, uid, seq, ops)
	i := uid / m.per
	if i >= len(m.logs) {
		i = len(m.logs) - 1 // the last client absorbs the division remainder
	}
	m.logs[i].record(t0)
	return ops
}

// ownRun is a run through the benchmark's own wiring of pmnet.NewTestbed.
type ownRun struct {
	res    *harness.RunResult
	simRun time.Duration // bed.Run() alone
	tracer *trace.Tracer // nil when untraced
	spans  []span
	// Mean span per call of the wrapped seams, and the share of sim.run's
	// duration no child span covers.
	handleNS, nextNS, recordNS float64
	simRunSelfShare            float64
}

// runOwn builds the testbed through pmnet.NewTestbed as harness.Run does.
// With traced set, Config.Trace is on and the handler, the generators and
// the record callbacks are wrapped in spans; without, nothing is added, which
// gives the traced run an untraced twin of exactly its shape. Either way it
// must decide what harness.Run decides: the caller compares digests.
func runOwn(w spec, cfg harness.RunConfig, traced bool) (*ownRun, error) {
	r := &ownRun{}
	epoch := time.Now()
	var logs []*spanLog
	var newLog func(name string) *spanLog // stays nil when untraced
	a, err := buildApp(&cfg)
	if err != nil {
		return nil, err
	}
	handler := a.handler
	if traced {
		r.tracer = trace.NewTracer(1 << 20)
		newLog = func(name string) *spanLog {
			l := &spanLog{name: name, epoch: epoch}
			logs = append(logs, l)
			return l
		}
		handler = spannedHandler{a.handler, newLog("apps.handle")}
	}
	topo := map[string]pmnet.TopologyKind{"": pmnet.StarTopology, "star": pmnet.StarTopology,
		"leaf-spine": pmnet.LeafSpineTopology, "fat-tree": pmnet.FatTreeTopology}[cfg.Topology]
	bed := pmnet.NewTestbed(pmnet.Config{
		Design: cfg.Design, Clients: cfg.Clients, Seed: cfg.Seed, Replication: cfg.Replication,
		CacheEntries: cfg.CacheSize, Stacks: cfg.Stacks, Handler: handler,
		Trace: r.tracer, Shards: cfg.Shards, RetryBackoff: cfg.RetryBackoff, Timeout: cfg.Timeout,
		Topology: topo, Leaves: cfg.Leaves, Spines: cfg.Spines, Oversub: cfg.Oversub,
		FatTreeK: cfg.FatTreeK, Impair: cfg.Impair, ImpairAckPath: cfg.ImpairAckPath,
		WorkerBudget: harness.NewCoreBudget(runtime.GOMAXPROCS(0) - 1), // as harness.Run's shared one
	})
	a.prefill()
	wire := wireClosedLoop
	if w.open() {
		wire = wireOpenLoop
	}
	finish := wire(&cfg, bed, newLog)
	setupEnd := time.Now()
	bed.Run()
	runEnd := time.Now()
	r.simRun = runEnd.Sub(setupEnd)
	if r.res, err = finish(); err != nil {
		return nil, err
	}
	if !traced {
		return r, nil
	}

	r.spans = append(r.spans,
		span{Name: "harness.setup", Start: 0, End: int64(setupEnd.Sub(epoch))},
		span{Name: "sim.run", Start: int64(setupEnd.Sub(epoch)), End: int64(runEnd.Sub(epoch))})
	type sum struct {
		ns int64
		n  int
	}
	byName := map[string]sum{}
	var children int64
	for _, l := range logs {
		ns, n := l.total()
		byName[l.name] = sum{byName[l.name].ns + ns, byName[l.name].n + n}
		children += ns
		r.spans = append(r.spans, l.spans...)
	}
	mean := func(name string) float64 {
		if s := byName[name]; s.n > 0 {
			return float64(s.ns) / float64(s.n)
		}
		return 0
	}
	r.handleNS = mean("apps.handle")
	r.nextNS = mean("workload.next") + mean("openloop.action") // a run has one or the other
	r.recordNS = mean("stats.record")
	// On the sharded route child spans of different workers overlap in time,
	// so their sum can exceed what sim.run's wall time lost to them.
	if r.simRun > 0 {
		r.simRunSelfShare = float64(int64(r.simRun)-children) / float64(r.simRun)
	}
	return r, nil
}

// wireClosedLoop attaches one closed-loop driver per client, each recording
// into its own slot as harness.runSharded does; that wiring is valid on the
// single-engine route too, and decides the same simulation as harness.Run's.
// newLog, when not nil, wraps the generator and the record callback in spans.
func wireClosedLoop(cfg *harness.RunConfig, bed *pmnet.Testbed,
	newLog func(name string) *spanLog) func() (*harness.RunResult, error) {
	root := sim.NewRand(cfg.Seed + 77)
	runs := make([]*stats.Run, cfg.Clients)
	done := make([]*workload.DriverStats, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		run := stats.NewRun(0)
		runs[i] = run
		eng := bed.Clients[i].Engine()
		gen := newGenerator(cfg, root.Fork())
		record := func(lat sim.Time) {
			if run.Requests == 0 {
				run.Start = eng.Now() - lat
			}
			run.Record(lat, eng.Now())
		}
		if newLog != nil {
			gen = spannedGenerator{gen, newLog("workload.next")}
			recLog, plain := newLog("stats.record"), record
			record = func(lat sim.Time) {
				t0 := time.Now()
				plain(lat)
				recLog.record(t0)
			}
		}
		seen := 0
		d := &workload.Driver{
			Sess: bed.Session(i),
			Gen:  gen,
			Record: func(lat sim.Time, op workload.Op) {
				if seen++; seen > cfg.Warmup {
					record(lat)
				}
			},
		}
		d.Run(eng, uint64(cfg.Requests+cfg.Warmup), func(st workload.DriverStats) { done[i] = &st })
	}
	return func() (*harness.RunResult, error) {
		res := &harness.RunResult{Bed: bed, Run: stats.NewRun(0)}
		for i, st := range done {
			if st == nil {
				return nil, fmt.Errorf("own run: client %d never finished", i)
			}
			res.Driver.Completed += st.Completed
			res.Driver.Updates += st.Updates
			res.Driver.Bypasses += st.Bypasses
			res.Driver.Failed += st.Failed
			mergeRun(res.Run, runs[i], i == 0)
		}
		return res, nil
	}
}

// wireOpenLoop attaches one open-loop driver per client as
// harness.runOpenLoop does (same fork order, same per-client shares).
// newLog, when not nil, wraps the mix in spans.
func wireOpenLoop(cfg *harness.RunConfig, bed *pmnet.Testbed,
	newLog func(name string) *spanLog) func() (*harness.RunResult, error) {
	usersPer := cfg.Users / cfg.Clients
	runs := make([]*stats.Run, cfg.Clients)
	var mix openloop.Mix = openloop.NewTwitterMix(cfg.Users, cfg.UpdateRatio, cfg.ValueSize)
	if newLog != nil {
		logs := make([]*spanLog, cfg.Clients)
		for i := range logs {
			logs[i] = newLog("openloop.action")
		}
		mix = spannedMix{mix, logs, usersPer}
	}
	root := sim.NewRand(cfg.Seed + 177)
	drivers := make([]*openloop.Driver, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		r := root.Fork()
		arr := arrival.New(arrival.Config{Rate: cfg.OfferedLoad / float64(cfg.Clients)}, r.Fork())
		runs[i] = stats.NewRun(cfg.WarmupDur)
		reservoir := stats.NewReservoir(256, r.Uint64())
		users := usersPer
		if i == cfg.Clients-1 {
			users = cfg.Users - i*usersPer
		}
		drivers[i] = openloop.New(openloop.Config{
			Users: users, UserBase: i * usersPer, MaxInFlight: cfg.MaxInFlight / cfg.Clients,
			Warmup: cfg.WarmupDur, Duration: cfg.Duration,
		}, bed.Session(i), mix, arr, r, runs[i], reservoir)
		drivers[i].Start(bed.Clients[i].Engine())
	}
	return func() (*harness.RunResult, error) {
		res := &harness.RunResult{Bed: bed, Run: stats.NewRun(cfg.WarmupDur), Open: &harness.OpenLoopResult{}}
		for i, d := range drivers {
			if d.ActiveSessions() != 0 {
				return nil, fmt.Errorf("own run: client %d has %d sessions still active", i, d.ActiveSessions())
			}
			res.Open.Stats.Merge(d.Stats())
			res.Run.Requests += runs[i].Requests
			res.Run.Hist.Merge(runs[i].Hist)
		}
		res.Run.End = cfg.Duration
		res.Driver.Completed = res.Open.Requests
		res.Driver.Failed = res.Open.FailedReqs
		return res, nil
	}
}

// mergeRun folds one client's closed-loop slot into the aggregate: the
// window opens at the earliest measured issue and closes at the last
// completion.
func mergeRun(into, from *stats.Run, first bool) {
	if from.Requests == 0 {
		return
	}
	if first || from.Start < into.Start {
		into.Start = from.Start
	}
	if from.End > into.End {
		into.End = from.End
	}
	into.Requests += from.Requests
	into.Hist.Merge(from.Hist)
}

// simBreakdown is the mean simulated time an update spent in each component,
// folded from the trace.Tracer's records of the traced run.
type simBreakdown struct {
	folded                                 int
	stackUS, wireUS, pipelineUS, persistUS float64
	applyUS                                float64
}

// foldTrace follows every update request that completed without a resend
// through the records the ring kept:
//
//	issue → StackTX            client stack    (client.sim_stack_us)
//	StackTX → first pipeline   wire + switches (netsim.sim_wire_us; to the
//	                           server's StackRX on ClientServer, which has
//	                           no pipeline)
//	first → last pipeline      device chain    (dataplane.sim_pipeline_us)
//	last pipeline → persist    log write       (pmem.sim_persist_us)
//	server StackRX → apply     reorder wait + handler + CPU (server.sim_apply_us)
//
// The request's packet id comes from its EvPipeline record; on ClientServer
// it is the next StackTX of the issuing host, which is exact for a closed
// loop (one request outstanding per host).
func foldTrace(recs []trace.Record, hasDevices bool) simBreakdown {
	type req struct {
		issue, tx, pipeFirst, pipeLast, persist, srvRX, apply sim.Time
		completed                                             bool
	}
	const serverBase = 3000 // testbed node ids: servers at 3000+i
	pktSpan := map[uint64]uint64{}
	for _, r := range recs {
		if r.Kind == trace.EvPipeline {
			if _, seen := pktSpan[r.B]; !seen {
				pktSpan[r.B] = r.C
			}
		}
	}
	reqs := map[uint64]*req{}
	lastIssue := map[uint64]uint64{} // host id → span awaiting its StackTX
	for _, r := range recs {
		switch r.Kind {
		case trace.EvIssue:
			if r.C == 1 {
				reqs[r.A] = &req{issue: r.At}
				if !hasDevices {
					lastIssue[r.A>>32] = r.A // session id == client host id
				}
			}
		case trace.EvStackTX:
			id, ok := pktSpan[r.B]
			if !ok && !hasDevices {
				if id, ok = lastIssue[r.A]; ok {
					delete(lastIssue, r.A)
					pktSpan[r.B] = id
				}
			}
			if q := reqs[id]; ok && q != nil && q.tx == 0 {
				q.tx = r.At
			}
		case trace.EvPipeline:
			if q := reqs[r.C]; q != nil {
				if q.pipeFirst == 0 {
					q.pipeFirst = r.At
				}
				q.pipeLast = r.At
			}
		case trace.EvPersist:
			if q := reqs[r.C]; q != nil {
				q.persist = r.At
			}
		case trace.EvStackRX:
			if id, ok := pktSpan[r.B]; ok && r.A >= serverBase {
				if q := reqs[id]; q != nil && q.srvRX == 0 {
					q.srvRX = r.At
				}
			}
		case trace.EvServerApply:
			if q := reqs[r.C]; q != nil && q.apply == 0 {
				q.apply = r.At
			}
		case trace.EvComplete:
			if q := reqs[r.A]; q != nil {
				q.completed = true
			}
		case trace.EvResend, trace.EvFail:
			delete(reqs, r.A)
		}
	}
	// Integer sums, so the map's iteration order cannot show in the result.
	var b simBreakdown
	var stack, wire, pipeline, persist, apply sim.Time
	for _, q := range reqs {
		if !q.completed || q.tx == 0 || q.srvRX == 0 || q.apply == 0 ||
			(hasDevices && (q.pipeFirst == 0 || q.persist == 0)) {
			continue // cut off by the ring's end, or resent
		}
		b.folded++
		stack += q.tx - q.issue
		apply += q.apply - q.srvRX
		if hasDevices {
			wire += q.pipeFirst - q.tx
			pipeline += q.pipeLast - q.pipeFirst
			persist += q.persist - q.pipeLast
		} else {
			wire += q.srvRX - q.tx
		}
	}
	if b.folded > 0 {
		n := float64(b.folded)
		b.stackUS = stack.Micros() / n
		b.wireUS = wire.Micros() / n
		b.pipelineUS = pipeline.Micros() / n
		b.persistUS = persist.Micros() / n
		b.applyUS = apply.Micros() / n
	}
	return b
}
