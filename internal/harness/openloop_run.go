package harness

import (
	"fmt"

	"pmnet"
	"pmnet/internal/arrival"
	"pmnet/internal/openloop"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/workload"
)

// reservoirCap sizes the per-client exact-tail sample. Small on purpose: the
// reservoir is a spot check on the histogram's bucketed tail, not a second
// histogram, and per-run memory must stay flat however long the run is.
const reservoirCap = 256

// openSlot is one client's private open-loop measurement state — the same
// single-writer pattern as the closed loop's partSlot: the client's engine
// worker writes it during bed.Run(), the merge loop reads it after (the
// run's join provides the happens-before edge). Per client, not per
// partition, because each driver owns a seeded tail reservoir.
type openSlot struct {
	run *stats.Run
	res *stats.Reservoir
	drv *openloop.Driver
}

// runOpenLoop wires per-client open-loop drivers onto the testbed and merges
// their results. Determinism mirrors runClosedLoop: the root rand forks once
// per client in client-index order, each driver draws only from its own
// streams on its own client's engine, and merging consumes slots in
// client-index order — so output is byte-identical across -parallel and
// -shards settings.
//
// The measurement window is [WarmupDur, Duration) by arrival time: an action
// arriving inside the window is measured even if it completes during the
// post-Duration drain, so tail latencies past the knee are not censored.
// Goodput is therefore measured completions over the window length.
func runOpenLoop(cfg *RunConfig, bed *pmnet.Testbed, mix workload.Mix) (*RunResult, error) {
	if cfg.Arrival.Rate != 0 {
		return nil, fmt.Errorf("harness: Arrival.Rate is derived from OfferedLoad; leave it zero")
	}
	if cfg.Users < cfg.Clients {
		// Each transport's driver draws from its own slice of the user
		// population, and a driver with no users has nothing to play.
		return nil, fmt.Errorf("harness: Users (%d) must be at least Clients (%d)", cfg.Users, cfg.Clients)
	}
	// Trace replay swaps the synthetic per-client processes for strided
	// views of one recorded file; everything downstream (driver, window,
	// merge order) is identical.
	var traceFile *arrival.TraceFile
	if cfg.ArrivalTrace != "" {
		if cfg.OfferedLoad > 0 {
			return nil, fmt.Errorf("harness: OfferedLoad and ArrivalTrace are mutually exclusive")
		}
		if cfg.Arrival != (arrival.Config{}) {
			return nil, fmt.Errorf("harness: Arrival must be zero when replaying a trace")
		}
		var err error
		traceFile, err = arrival.ReadTraceFile(cfg.ArrivalTrace)
		if err != nil {
			return nil, fmt.Errorf("harness: arrival trace: %w", err)
		}
	}
	rootRand := sim.NewRand(cfg.Seed + 177)
	perRate := cfg.OfferedLoad / float64(cfg.Clients)
	usersPer := cfg.Users / cfg.Clients
	perInFlight := cfg.MaxInFlight / cfg.Clients
	if perInFlight <= 0 {
		perInFlight = 1
	}
	skew := 0.0
	if cfg.Zipfian {
		// Inverse power-law popularity: ~1% of users draw ~30% of actions.
		skew = 4.0
	}

	slots := make([]openSlot, cfg.Clients)
	clients := newPartCountdown(bed)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		r := rootRand.Fork()
		var arr arrival.Source
		if traceFile != nil {
			// The fork for the synthetic process still happens (and is
			// discarded) so trace and synthetic runs consume the root stream
			// identically — switching arrival inputs must not reseed mixes.
			r.Fork()
			arr = traceFile.Client(i, cfg.Clients)
		} else {
			arrCfg := cfg.Arrival
			arrCfg.Rate = perRate
			arr = arrival.New(arrCfg, r.Fork())
		}
		s := &slots[i]
		s.run = stats.NewRun(cfg.WarmupDur)
		s.res = stats.NewReservoir(reservoirCap, r.Uint64())
		base := i * usersPer
		users := usersPer
		if i == cfg.Clients-1 {
			// Last client absorbs the division remainder.
			users = cfg.Users - base
		}
		s.drv = openloop.New(openloop.Config{
			Users:       users,
			UserBase:    base,
			MaxInFlight: perInFlight,
			Skew:        skew,
			Warmup:      cfg.WarmupDur,
			Duration:    cfg.Duration,
		}, bed.Session(i), mix, arr, r, s.run, s.res)
		s.drv.OnDone(func() { clients.done(i) })
		s.drv.Start(bed.Clients[i].Engine())
	}
	bed.Run()

	run := stats.NewRun(cfg.WarmupDur)
	open := &OpenLoopResult{Reservoir: stats.NewReservoir(reservoirCap, cfg.Seed+178)}
	for i := range slots {
		s := &slots[i]
		open.Stats.Merge(s.drv.Stats())
		open.Reservoir.Merge(s.res)
		run.Requests += s.run.Requests
		run.Hist.Merge(s.run.Hist)
		if s.drv.ActiveSessions() != 0 {
			return nil, fmt.Errorf("harness: client %d finished with %d sessions still active", i, s.drv.ActiveSessions())
		}
	}
	// Goodput semantics: Throughput() = measured completions over the fixed
	// window, regardless of when stragglers drained.
	run.End = cfg.Duration
	var agg = RunResult{Bed: bed, Run: run, Open: open}
	agg.Driver.StepStats = open.StepStats
	agg.Driver.Completed = open.Requests
	agg.Driver.Failed = open.FailedReqs
	return &agg, nil
}
