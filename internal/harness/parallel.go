package harness

// Parallel execution of experiment cells. The paper's evaluation is ~15
// experiments whose largest member is a 64-cell sweep of independent
// simulations; this runner executes the combined cell list of a whole batch
// on a bounded worker pool and then renders each experiment sequentially, so
// `pmnetbench -run all -parallel N` scales with cores while producing output
// byte-identical to the sequential run (see parallel_test.go for the golden
// guarantee and DESIGN.md for why parallelism cannot perturb determinism).

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Options controls batch execution.
type Options struct {
	Seed     uint64
	Parallel int // worker-pool size; <= 0 means GOMAXPROCS
	// Shards > 0 overrides every Cfg cell's RunConfig.Shards: the testbed is
	// partitioned and driven by this many engine shards. Cell output is
	// byte-identical for every value ≥ 1 (the PDES determinism contract), so
	// the flag trades intra-cell parallelism against the pool's inter-cell
	// parallelism without perturbing results. 0 leaves each cell's own
	// setting untouched.
	Shards int
}

// ExperimentRun is one rendered experiment plus its execution accounting.
type ExperimentRun struct {
	Result
	Cells []CellResult
	// Wall sums the wall time of this experiment's cells — aggregate
	// compute, not elapsed time (cells of different experiments interleave
	// on the pool).
	Wall time.Duration
}

// Perf aggregates host-side execution metrics across a batch — the perf
// trajectory the BENCH artifacts track. Events is deterministic (a pure
// function of the experiment list and seed); the rates and allocation counts
// are wall-clock-class measurements that vary run to run.
type Perf struct {
	Events         uint64  // simulator events fired across all cells
	EventsPerSec   float64 // Events / cell-execution wall time
	Allocs         uint64  // heap allocations during cell execution (all workers)
	AllocsPerEvent float64
}

// BatchResult is the outcome of RunExperiments.
type BatchResult struct {
	Seed        uint64
	Parallel    int           // resolved worker count
	Shards      int           // forced per-cell shard count (0 = per-cell default)
	Wall        time.Duration // real elapsed time of the whole batch
	Perf        Perf
	Experiments []ExperimentRun
}

// Text renders the batch exactly as `pmnetbench` prints it in table mode:
// every experiment's Text, a blank line between two.
func (b *BatchResult) Text() string {
	texts := make([]string, len(b.Experiments))
	for i, er := range b.Experiments {
		texts[i] = er.Text()
	}
	return strings.Join(texts, "\n")
}

// RunExperiments executes the named experiments: it enumerates every cell of
// every experiment up front, executes the combined list on a bounded worker
// pool, and renders each experiment in the order given. The rendered tables,
// notes, and metrics are identical for every pool size.
func RunExperiments(ids []string, opt Options) (*BatchResult, error) {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	start := time.Now()
	type span struct {
		spec   *Spec
		lo, hi int
	}
	var flat []Cell
	spans := make([]span, 0, len(ids))
	for _, id := range ids {
		s, ok := Specs[id]
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		cs := s.Enumerate(opt.Seed)
		spans = append(spans, span{s, len(flat), len(flat) + len(cs)})
		flat = append(flat, cs...)
	}
	if opt.Shards > 0 {
		for i := range flat {
			if flat[i].Cfg != nil {
				flat[i].Cfg.Shards = opt.Shards
			}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	cellStart := time.Now()
	results := runCells(flat, workers)
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	cellWall := time.Since(cellStart)
	runtime.ReadMemStats(&ms1)
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	out := &BatchResult{Seed: opt.Seed, Parallel: workers, Shards: opt.Shards}
	for _, r := range results {
		out.Perf.Events += r.Events
	}
	out.Perf.Allocs = ms1.Mallocs - ms0.Mallocs
	if s := cellWall.Seconds(); s > 0 {
		out.Perf.EventsPerSec = float64(out.Perf.Events) / s
	}
	if out.Perf.Events > 0 {
		out.Perf.AllocsPerEvent = float64(out.Perf.Allocs) / float64(out.Perf.Events)
	}
	for _, sp := range spans {
		cells := results[sp.lo:sp.hi]
		er := ExperimentRun{Result: sp.spec.Render(opt.Seed, cells), Cells: cells}
		for _, c := range cells {
			er.Wall += c.Wall
		}
		out.Experiments = append(out.Experiments, er)
	}
	//pmnetlint:ignore wallclock real elapsed time is reported only, never simulated
	out.Wall = time.Since(start)
	return out, nil
}

// runCells executes cells on up to workers goroutines, returning results in
// input order. Completion order is irrelevant: each result lands in its own
// slot, and no cell shares mutable state with another (each builds its own
// testbed; package-level state is read-only calibration data) — except
// pmem's free list of released device images, through which a finished
// cell's memory reaches a later one. Only all-zero images leave that list
// (pmem.Device.Release), so what a cell computes cannot depend on it.
func runCells(cells []Cell, workers int) []CellResult {
	out := make([]CellResult, len(cells))
	if workers > len(cells) {
		workers = len(cells)
	}
	// Reserve this pool's worker cores (beyond the caller's own) from the
	// shared budget so sharded cells only borrow genuinely idle cores; an
	// oversubscribed pool (workers > cores) simply leaves nothing to borrow.
	reserved := sharedBudget.Acquire(workers - 1)
	defer sharedBudget.Release(reserved)
	if workers <= 1 {
		for i := range cells {
			out[i] = execCell(cells[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = execCell(cells[i])
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// RunSpec executes one spec on a pool of the given size and renders it,
// panicking on cell failure — a single figure's run treats setup failure as
// fatal, like mustRun.
func RunSpec(s *Spec, seed uint64, workers int) Result {
	cells := runCells(s.Enumerate(seed), workers)
	for _, c := range cells {
		if c.Err != nil {
			panic(c.Err)
		}
	}
	return s.Render(seed, cells)
}
