// Package pdes runs several sim.Engine instances as one conservative
// parallel discrete-event simulation.
//
// The model is classic conservative PDES with lookahead (Chandy/Misra; the
// same structure ns-3's distributed scheduler uses): the topology is split
// into shards, each owning a disjoint set of entities on its own engine, and
// every interaction that crosses a shard boundary is guaranteed to take at
// least L nanoseconds of virtual time (the minimum cross-shard link latency,
// measured at topology-build time). Execution proceeds in barrier-
// synchronized epochs, ONE barrier per epoch:
//
//  1. Reduce: every worker reads the per-shard next-event times published
//     before the previous barrier — each already folded with its shard's
//     pending outbound queue minimum — and computes the global minimum gmin
//     identically.
//  2. Begin/Drain/Run: each shard flips its handoff queues to the epoch's
//     write parity (Begin), injects the cross-shard work its peers queued
//     during the previous epoch from the read parity (Drain, deterministic
//     merge order), then executes its events in [gmin, gmin+L). A shard whose
//     next event lies beyond the window fires nothing (an idle skip).
//  3. Publish: each shard writes its next-event time and cumulative event
//     count into the epoch's parity slot, then all workers meet at the
//     barrier.
//
// Fusing the classic drain barrier into the run barrier is what the parity
// double-buffering buys: during epoch k producers append to buffers and
// min-slots of parity k&1 while consumers read parity (k-1)&1, so no barrier
// is needed between "publish" and "read" — the single barrier at the end of
// the epoch is the happens-before edge that hands parity k&1 to epoch k+1.
// The pending-queue minimums (Shard.PendingOut) are load-bearing for
// correctness: events sitting in handoff buffers are invisible to the
// engines until drained, so gmin must take them into account or a window
// could open past an undrained event and violate causality. Each shard folds
// its own outbound-queue minimums into the slot it publishes, so the reduce
// is O(shards) regardless of how many queues the topology has.
//
// Because the first event of the epoch fires at ≥ gmin, anything a shard
// sends during the epoch arrives at ≥ gmin+L — the start of the next epoch —
// so no shard can receive an event in its own past, and the drain at the
// next epoch sees every cross-shard event before any of them is runnable.
// DESIGN.md §10.4 and §10.6 develop the full argument and the
// byte-identical-output discipline built on top of this runner.
//
// That loop is the whole runner, for one worker or many. One worker runs it
// inline with no barrier; what the measurements in DESIGN.md §10.6 back beyond
// it are the idle-shard skip and the rebalance, nothing else.
//
// Determinism: the runner's output order is a pure function of the shard
// structure, never of the worker count or host scheduling. Workers only
// multiplex shards; the shard→worker assignment is rebalanced every
// rebalanceEvery epochs from published per-shard event counts, but every
// worker recomputes the identical assignment from identical published data,
// and which worker drives a shard cannot perturb the order its events run
// in. The barrier's atomics provide the happens-before edges that make the
// cross-shard queue handoffs safe.
package pdes

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmnet/internal/sim"
)

// never is the reduction identity: no pending event.
const never = sim.Time(math.MaxInt64)

// rebalanceEvery is the epoch cadence of the deterministic shard→worker
// reassignment. Each worker recomputes an LPT assignment from the per-shard
// event-count deltas published at the previous barrier; 64 epochs amortizes
// the (tiny) sort while still tracking load shifts quickly.
const rebalanceEvery = 64

// Shard is one partition group of the simulation: an engine owning a
// disjoint set of entities, plus the parity hooks that manage its
// cross-shard handoff queues.
type Shard struct {
	// Eng is the shard's event engine. Only the worker driving this shard
	// touches it between barriers.
	Eng *sim.Engine
	// Begin is invoked at the start of every epoch, before Drain: it must
	// flip the shard's OUTBOUND handoff queues to the given write parity
	// (resetting that parity's pending-minimum slots). It runs
	// unconditionally — even for shards with nothing to run in the window —
	// because a stale pending minimum would wedge the global window.
	// May be nil for shards with no cross-shard queues.
	Begin func(parity uint32)
	// Drain is invoked after Begin with the opposite (read) parity: it must
	// inject every cross-shard event queued for this shard at that parity
	// (in the deterministic merge order the model defines) and reclaim any
	// pooled resources returned to it. May be nil.
	Drain func(parity uint32)
	// PendingOut reports the minimum event time this shard has queued into
	// outbound handoff buffers at the given parity (never if none), whatever
	// shard they are bound for. The runner folds it into the shard's
	// published next-event time, so the per-epoch reduce is O(shards).
	// Required whenever the shard has outbound queues (netsim:
	// Fabric.PendingOutFunc); may be nil otherwise.
	PendingOut func(parity uint32) sim.Time
}

// PerfStats reports wall-clock-class runner telemetry. These numbers are NOT
// deterministic across runs (barrier spin time) or across shard counts
// (idle skips depend on the shard structure), so they belong in perf
// reporting — never in the byte-compared counter registry.
type PerfStats struct {
	// Epochs is the number of executed epoch windows. (This one IS a pure
	// function of the global event set — shard-count- and worker-count-
	// invariant — and is safe to mirror into deterministic counters.)
	Epochs uint64
	// BarrierNs is the cumulative wall time workers spent spinning at the
	// epoch barrier (0 on the single-worker path, which has no barrier).
	BarrierNs int64
	// IdleSkips counts shard-epochs in which the shard fired nothing
	// because its next event lay beyond the window.
	IdleSkips uint64
}

// Runner drives a set of shards in barrier-synchronized epochs.
type Runner struct {
	shards    []Shard
	lookahead sim.Time
	workers   int
	// quiesce, if set, runs single-threaded after every RunUntil, once all
	// workers have joined — the hook for cleanup no later epoch will do
	// (netsim: repatriating the final epoch's packet frees).
	quiesce func()
	mins    []minSlot
	bar     barrier
	// epoch counts executed epoch windows across RunUntil calls; its parity
	// selects the live buffer of every double-buffered structure.
	epoch  uint64
	states []*workerState
	// Telemetry each worker adds to once, when its RunUntil call ends. It
	// lives here, not in workerState, because SetWorkers rebuilds the states.
	barrierNs atomic.Int64
	idleSkips atomic.Uint64
}

// minSlot holds one shard's published next-event time (engine minimum folded
// with the shard's outbound queue minimum) and cumulative event count,
// double-buffered by epoch parity (the owner writes parity k&1 at the end of
// epoch k while peers still read parity (k-1)&1 in their reduce), and padded
// to its own cache line so per-epoch writes from different workers never
// false-share.
type minSlot struct {
	t      [2]sim.Time
	events [2]uint64
	_      [32]byte
}

// workerState is one worker's private view of the shard→worker assignment
// plus rebalancing scratch. Every worker recomputes the identical assignment
// from the same published data, so private copies stay in agreement without
// any cross-worker writes.
type workerState struct {
	asg        []int32  // shard -> worker
	lastEvents []uint64 // cumulative events at last rebalance
	order      []int32  // scratch: shards sorted by delta desc
	delta      []uint64 // scratch: events since last rebalance
	load       []uint64 // scratch: per-worker assigned load
	lastRebal  uint64   // epoch of the last rebalance (guards re-entry)
}

// New creates a runner over shards with the given lookahead (must be ≥ 1 ns:
// a zero window could never fire an event and the epoch loop would spin
// forever). workers bounds the worker pool; values ≤ 0 or beyond the shard
// count and GOMAXPROCS are clamped. The shard list order is part of the
// deterministic contract; the initial assignment is shard s → worker s mod W.
func New(shards []Shard, lookahead sim.Time, workers int) *Runner {
	if len(shards) == 0 {
		panic("pdes: no shards")
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("pdes: lookahead %d ns is not positive", lookahead))
	}
	if workers <= 0 || workers > len(shards) {
		workers = len(shards)
	}
	if mx := runtime.GOMAXPROCS(0); workers > mx {
		workers = mx
	}
	r := &Runner{
		shards:    shards,
		lookahead: lookahead,
		mins:      make([]minSlot, len(shards)),
	}
	r.setWorkers(workers)
	return r
}

// SetQuiesce installs a hook invoked single-threaded at the end of every
// Run/RunUntil call, after all workers have joined (netsim: Fabric.Quiesce).
// Must not be called while a run is in progress.
func (r *Runner) SetQuiesce(f func()) { r.quiesce = f }

// SetWorkers resizes the worker pool between runs (values ≤ 0 or beyond the
// shard count are clamped to the shard count; unlike New it does NOT clamp
// to GOMAXPROCS — callers pass budgeted counts, and tests force
// multi-worker execution on single-CPU machines). Worker count never
// affects output, only wall clock. Must not be called while a run is in
// progress.
func (r *Runner) SetWorkers(n int) {
	if n <= 0 || n > len(r.shards) {
		n = len(r.shards)
	}
	if n == r.workers {
		return
	}
	r.setWorkers(n)
}

func (r *Runner) setWorkers(n int) {
	r.workers = n
	r.bar.n = int32(n)
	s := len(r.shards)
	r.states = make([]*workerState, n)
	for w := range r.states {
		st := &workerState{
			asg:        make([]int32, s),
			lastEvents: make([]uint64, s),
			order:      make([]int32, s),
			delta:      make([]uint64, s),
			load:       make([]uint64, n),
			lastRebal:  r.epoch,
		}
		for i := 0; i < s; i++ {
			st.asg[i] = int32(i % n)
			st.lastEvents[i] = r.shards[i].Eng.EventsRun()
		}
		r.states[w] = st
	}
}

// Workers returns the resolved worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// Lookahead returns the epoch window width.
func (r *Runner) Lookahead() sim.Time { return r.lookahead }

// Perf returns runner telemetry accumulated so far. Not safe to call while
// a run is in progress.
func (r *Runner) Perf() PerfStats {
	return PerfStats{Epochs: r.epoch, BarrierNs: r.barrierNs.Load(), IdleSkips: r.idleSkips.Load()}
}

// Run executes epochs until every shard's queue — engine and handoff — is
// drained.
func (r *Runner) Run() { r.RunUntil(never) }

// RunUntil executes epochs until every event with time ≤ deadline has run,
// then advances every shard clock to deadline (mirroring Engine.RunUntil).
// Events beyond the deadline stay queued — in engines or in handoff buffers
// — for a later call.
//
// Model callbacks must not call Engine.Stop: the epoch loop would simply
// resume the engine at the next epoch.
func (r *Runner) RunUntil(deadline sim.Time) {
	if r.workers == 1 {
		r.epoch = r.work(0, deadline, nil)
		if r.quiesce != nil {
			r.quiesce()
		}
		return
	}
	// Fresh barrier state per call: workers restart their local sense at 0,
	// so the shared sense must restart too or the first barrier of a call
	// after an odd-wait call would let spinners fall through early.
	r.bar.reset()
	var wg sync.WaitGroup
	for w := 1; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(w, deadline, &r.bar)
		}(w)
	}
	e := r.work(0, deadline, &r.bar)
	wg.Wait()
	r.epoch = e
	if r.quiesce != nil {
		r.quiesce()
	}
}

// work is one worker's epoch loop; it returns the epoch counter at exit
// (identical across workers: every worker computes the same gmin from the
// same parity snapshot, so they all agree on every window and on the exit
// epoch without any leader). bar is nil in the single-worker fast path (no
// goroutines, no atomics inside the loop, no allocations in steady state).
func (r *Runner) work(w int, deadline sim.Time, bar *barrier) uint64 {
	st := r.states[w]
	epoch := r.epoch
	var sense uint32
	var waitNs int64
	var skips uint64 // shard-epochs this call idle-skipped
	// Prologue: publish fresh next-event times into the parity the first
	// reduce will read. Callers may have scheduled new engine work since the
	// last run, and after SetWorkers the slots may never have been written.
	pp := uint32(epoch+1) & 1
	for s := range r.shards {
		if st.asg[s] != int32(w) {
			continue
		}
		r.publish(s, pp)
	}
	if bar != nil {
		bar.wait(&sense, &waitNs)
	}
	for {
		// Rebalance on cadence, from the event counts published at the
		// previous barrier. Skipped on the single-worker path, and guarded
		// against re-running when RunUntil re-enters at the same epoch.
		if bar != nil && epoch > 0 && epoch%rebalanceEvery == 0 && st.lastRebal != epoch {
			st.lastRebal = epoch
			st.rebalance(r.mins, uint32(epoch+1)&1)
		}
		wp := uint32(epoch) & 1 // this epoch's write parity
		rp := wp ^ 1            // previous epoch's parity: what we read
		gmin := r.reduce(rp)
		if gmin == never || gmin > deadline {
			// Globally drained (below the deadline). Advance this worker's
			// shard clocks to the deadline so every engine agrees on Now,
			// exactly as Engine.RunUntil leaves a drained engine. Handoff
			// buffers may still hold events — all ≥ gmin > deadline, by the
			// pending-minimum bound — and they stay queued for a later call.
			if deadline < never {
				for s := range r.shards {
					if st.asg[s] != int32(w) {
						continue
					}
					r.shards[s].Eng.RunUntil(deadline)
				}
			}
			break
		}
		// The epoch window is [gmin, gmin+L): every event in it is safe to
		// run because nothing sent during the epoch can arrive before
		// gmin+L. RunUntil is ≤-inclusive, hence the -1 (integer ns).
		runTo := gmin + r.lookahead - 1
		if runTo > deadline {
			runTo = deadline
		}
		skips += r.runShards(st, w, wp, rp, runTo)
		epoch++
		if bar != nil {
			bar.wait(&sense, &waitNs)
		}
	}
	if bar != nil && waitNs > 0 {
		r.barrierNs.Add(waitNs)
	}
	r.idleSkips.Add(skips)
	return epoch
}

// reduce computes the global minimum over every shard's published next-event
// time at the given parity. O(shards) — the per-queue minimums were folded in
// at publish time by their owners.
func (r *Runner) reduce(rp uint32) sim.Time {
	gmin := never
	for i := range r.mins {
		if t := r.mins[i].t[rp]; t < gmin {
			gmin = t
		}
	}
	return gmin
}

// runShards performs one epoch of work for every shard this worker owns:
// flip outbound queues to the write parity, drain the read parity, run the
// window, publish. It returns how many of them had nothing to run in it.
func (r *Runner) runShards(st *workerState, w int, wp, rp uint32, runTo sim.Time) (skips uint64) {
	for s := range r.shards {
		if st.asg[s] != int32(w) {
			continue
		}
		sh := &r.shards[s]
		if sh.Begin != nil {
			sh.Begin(wp)
		}
		if sh.Drain != nil {
			sh.Drain(rp)
		}
		// A shard whose next event (after the drain) lies beyond the window
		// is idle this epoch: RunThrough finds that out at its first pop and
		// fires nothing, so no separate peek decides it — publish below is the
		// epoch's only one. A window never moves a clock past the last event
		// it fired (RunThrough, not RunUntil): Now is the max across shards,
		// so after an unbounded Run it is the time of the last event, and only
		// the bounded exit path advances every clock to the deadline.
		if !sh.Eng.RunThrough(runTo) {
			skips++
		}
		r.publish(s, wp)
	}
	return skips
}

// publish writes shard s's next-event time (folded with its outbound pending
// minimum) and cumulative event count into the given parity slot. Only the
// worker driving s calls it. Engine.NextTime reads the wheel and moves
// nothing, so the peek leaves the shard exactly as RunThrough left it.
func (r *Runner) publish(s int, parity uint32) {
	m := &r.mins[s]
	sh := &r.shards[s]
	t := never
	if et, ok := sh.Eng.NextTime(); ok {
		t = et
	}
	if sh.PendingOut != nil {
		if q := sh.PendingOut(parity); q < t {
			t = q
		}
	}
	m.t[parity] = t
	m.events[parity] = sh.Eng.EventsRun()
}

// rebalance recomputes this worker's private shard→worker assignment by LPT
// (longest processing time first) over the event-count deltas since the last
// rebalance. Insertion sort + linear argmin: zero allocations, and fully
// deterministic (delta desc, shard index asc on ties; lowest worker index on
// load ties), so every worker lands on the identical assignment.
func (st *workerState) rebalance(mins []minSlot, parity uint32) {
	s := len(st.asg)
	w := len(st.load)
	for i := 0; i < s; i++ {
		ev := mins[i].events[parity]
		st.delta[i] = ev - st.lastEvents[i]
		st.lastEvents[i] = ev
		st.order[i] = int32(i)
	}
	for i := 1; i < s; i++ {
		o := st.order[i]
		d := st.delta[o]
		j := i - 1
		for j >= 0 && st.delta[st.order[j]] < d {
			st.order[j+1] = st.order[j]
			j--
		}
		st.order[j+1] = o
	}
	for i := range st.load {
		st.load[i] = 0
	}
	for _, sh := range st.order {
		best := 0
		for i := 1; i < w; i++ {
			if st.load[i] < st.load[best] {
				best = i
			}
		}
		st.asg[sh] = int32(best)
		// +1 so zero-delta shards still spread instead of piling onto
		// worker 0 between bursts.
		st.load[best] += st.delta[sh] + 1
	}
}

// Now returns the maximum shard clock — after a bounded RunUntil all shards
// agree on it; after an unbounded Run it is the time of the last event (an
// epoch window leaves each clock at the last event it fired, never at the
// window's end).
func (r *Runner) Now() sim.Time {
	var max sim.Time
	for i := range r.shards {
		if t := r.shards[i].Eng.Now(); t > max {
			max = t
		}
	}
	return max
}

// EventsRun sums executed events across shards. The total is deterministic:
// the same events fire in every shard configuration.
func (r *Runner) EventsRun() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].Eng.EventsRun()
	}
	return n
}

// barrier is a sense-reversing spin barrier. Epochs are sub-microsecond, so
// the wait is a spin with Gosched rather than a futex sleep; the atomics
// double as the happens-before edges that publish each worker's plain writes
// (minSlot parities, cross-shard queue parities) to every other worker: each
// arrival's Add is observed by the last arrival, whose sense Store is
// observed by every spinner's Load.
type barrier struct {
	n     int32 // party count; written only between runs (SetWorkers)
	count atomic.Int32
	sense atomic.Uint32
}

// reset restores the initial state so a new run's workers (whose local
// senses restart at 0) agree with the shared sense. Called single-threaded
// at the top of RunUntil.
func (b *barrier) reset() {
	b.count.Store(0)
	b.sense.Store(0)
}

// wait blocks until all n parties arrive, accumulating spin time into
// spinNs. The last arrival pays no timing overhead, and a spinner that finds
// the sense already flipped pays none either.
func (b *barrier) wait(sense *uint32, spinNs *int64) {
	s := *sense ^ 1
	*sense = s
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(s)
		return
	}
	if b.sense.Load() == s {
		return
	}
	//pmnetlint:ignore wallclock barrier spin time is perf telemetry only, never simulated
	start := time.Now()
	for b.sense.Load() != s {
		runtime.Gosched()
	}
	//pmnetlint:ignore wallclock barrier spin time is perf telemetry only, never simulated
	*spinNs += time.Since(start).Nanoseconds()
}
