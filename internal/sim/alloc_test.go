package sim

// Allocation pin + micro-benchmark for the event engine hot path. The pooled
// node design promises that once the free list has warmed up, scheduling and
// running events allocates nothing; the pin turns that promise into a test
// that fails the build if a change reintroduces per-event garbage.

import (
	"testing"
	"unsafe"

	"pmnet/internal/raceflag"
)

// TestNodeSize pins the node to the 64-byte size class: one more word moves
// every pooled event to 80 bytes and grows every record that embeds a Timer,
// which the standing timer population of a saturated run shows as retained
// heap.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 64 {
		t.Errorf("sizeof(node) = %d, want ≤ 64", got)
	}
}

// TestScheduleRunAllocs pins Engine.After + Run to zero steady-state
// allocations. The first round warms the node pool (and the heap backing
// array); every subsequent round must recycle.
func TestScheduleRunAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	round := func() {
		base := e.Now()
		for i := 0; i < 64; i++ {
			e.After(Time(i%8), fn)
		}
		e.RunUntil(base + 8)
	}
	round() // warm the pool
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("After+RunUntil allocated %.1f objects per 64-event round, want 0", got)
	}
}

// BenchmarkEngineSchedule measures the schedule→pop→fire cycle: one After
// plus one Step per iteration, with a standing population of events so the
// heap has realistic depth.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(256, fn)
		e.Step()
	}
}

// TestTimerAllocs pins Timer.After + Run to zero allocations from the first
// round: a Timer is its own node, so there is no pool to warm.
func TestTimerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	var tms [64]Timer
	round := func() {
		base := e.Now()
		for i := range tms {
			tms[i].After(e, Time(i%8), fn)
		}
		e.RunUntil(base + 8)
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("Timer.After+RunUntil allocated %.1f objects per 64-event round, want 0", got)
	}
	if e.PooledNodes() != 0 {
		t.Errorf("Timers took %d pooled nodes, want 0", e.PooledNodes())
	}
}

// BenchmarkTimerAt is BenchmarkEngineSchedule on caller-owned Timers: the
// same standing population and the same schedule→pop→fire cycle, with no
// trip through the node pool.
func BenchmarkTimerAt(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	var tms [257]Timer // 256 standing, and the one each iteration arms
	for i := 0; i < 256; i++ {
		tms[i].After(e, Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tms[(i+256)%len(tms)].After(e, 256, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleWheel is BenchmarkEngineSchedule with the delay
// distribution spread across wheel levels 0 to 6 — near-future events
// dominate (matching network workloads) but each iteration also touches high
// levels, so cascade costs are in the measured loop, not hidden behind an
// L0-only fast path.
func BenchmarkEngineScheduleWheel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	delays := [8]Time{1, 3, 17, 63, 1 << 9, 1 << 14, 1 << 20, wheelSpan + 5}
	for i := 0; i < 256; i++ {
		e.After(delays[i%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(delays[i%len(delays)], fn)
		e.Step()
	}
}

// BenchmarkCancel measures the schedule→cancel cycle that client retry
// timers pay on nearly every response: each iteration arms one timer a full
// timeout ahead and cancels it: an unlink from a doubly-linked slot list
// over a standing population, and the node straight back to the pool.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	var evs [64]Event
	for i := range evs {
		evs[i] = e.After(Time(1000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(evs)
		evs[k].Cancel()
		evs[k] = e.After(Time(1000+k), fn)
		if i%len(evs) == len(evs)-1 {
			e.RunUntil(e.Now() + 1)
		}
	}
}

// BenchmarkRunThroughWindowed measures the event loop the way the PDES runner
// drives it: a standing population of self-rescheduling events (delays spread
// over levels 0–2, like link serialization, propagation and stack crossings)
// consumed in 640 ns windows — the wire's lookahead — each opened at the next
// pending event as an epoch is, so most windows end inside a level-1 or
// level-2 slot and the deadline-inside-slot path of open is in the measured
// loop. One iteration is one fired event.
func BenchmarkRunThroughWindowed(b *testing.B) {
	e := NewEngine()
	delays := [8]Time{3, 37, 116, 600, 716, 1200, 2500, 5000}
	var k int
	var fn func()
	fn = func() {
		k++
		e.After(delays[k%len(delays)], fn)
	}
	for i := 0; i < 256; i++ {
		e.After(Time(i*7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for target := e.EventsRun() + uint64(b.N); e.EventsRun() < target; {
		next, _ := e.NextTime() // the epoch's one peek: where the window starts
		e.RunThrough(next + 639)
	}
}
