package harness

// This file defines the cell model of the experiment harness. Every
// experiment of the paper's evaluation decomposes into independent cells —
// one deterministic discrete-event simulation each, with its own testbed,
// its own virtual clock, and its own seeded sim.Rand streams — plus a
// sequential render step that folds the cell results into the published
// table. Per-cell seeds are fixed at enumeration time and rendering consumes
// results strictly in enumeration order, so cells may execute in any order,
// on any number of goroutines, without perturbing a single output byte.

import (
	"fmt"
	"time"

	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/trace"
	"pmnet/internal/workload"
)

// Cell is one independent simulation unit of an experiment. Exactly one of
// Cfg and Custom is set: Cfg cells run the standard harness Run; Custom
// cells drive a bespoke testbed (recovery, tail contention) or sample a
// closed-form model, returning an experiment-defined payload plus their
// final virtual-clock reading.
type Cell struct {
	Key    string
	Cfg    *RunConfig
	Custom func() (any, sim.Time)
}

// CellResult is the outcome of one executed cell. The testbed itself is
// released once the cell completes — its PM images go back to pmem for the
// next cell, and retaining it would pin every cell's arena in memory for the
// whole sweep — so everything a renderer may need is extracted here.
type CellResult struct {
	Key        string
	Run        *stats.Run           // Cfg cells: the measurement window
	Driver     workload.DriverStats // Cfg cells: driver accounting
	Open       *OpenLoopResult      // open-loop Cfg cells: arrival/admission accounting
	V          any                  // Custom cells: experiment-defined payload
	VirtualEnd sim.Time             // virtual clock at cell completion
	Events     uint64               // Cfg cells: simulator events fired (deterministic per seed)
	Counters   []trace.Snapshot     // Cfg cells: unified metrics registry at quiescence
	Wall       time.Duration        // real time spent executing the cell
	Err        error
}

// Spec is one experiment split into cell enumeration and rendering. The
// paper's figure IDs index Specs. Enumerate must be cheap and deterministic
// — it bakes the seed into every cell — and Render must consume cells in
// enumeration order only.
type Spec struct {
	ID        string
	Enumerate func(seed uint64) []Cell
	Render    func(seed uint64, cells []CellResult) Result
}

// execCell runs one cell. The wall clock here measures host execution time
// for perf-trajectory reporting (the BENCH artifacts); it never feeds back
// into the simulation, which advances exclusively on its virtual clock.
func execCell(c Cell) CellResult {
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	start := time.Now()
	out := CellResult{Key: c.Key}
	if c.Cfg != nil {
		res, err := Run(*c.Cfg)
		if err != nil {
			out.Err = fmt.Errorf("cell %s: %w", c.Key, err)
			return out
		}
		out.Run = res.Run
		out.Driver = res.Driver
		out.Open = res.Open
		out.VirtualEnd = res.Bed.Now()
		out.Events = res.Bed.EventsRun()
		out.Counters = res.Bed.Counters().Snapshot()
		res.Release()
	} else {
		out.V, out.VirtualEnd = c.Custom()
		// Custom cells that know their deterministic event count surface it
		// through this hook so the BENCH JSON can rate them (ns/event) like
		// Cfg cells.
		if v, ok := out.V.(interface{ CellEvents() uint64 }); ok {
			out.Events = v.CellEvents()
		}
	}
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	out.Wall = time.Since(start)
	return out
}

// cfgCell builds a standard cell around a copy of cfg.
func cfgCell(key string, cfg RunConfig) Cell {
	c := cfg
	return Cell{Key: key, Cfg: &c}
}
