package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.At(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine()
	var inner Time
	e.After(5*Microsecond, func() {
		e.After(3*Microsecond, func() { inner = e.Now() })
	})
	e.Run()
	if inner != 8*Microsecond {
		t.Fatalf("nested After fired at %v, want 8µs", inner)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{10, 20, 30} {
		e.At(d, func() { ran = append(ran, e.Now()) })
	}
	e.RunUntil(20)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", len(ran))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("after Run, ran %d events, want 3", len(ran))
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock at %v after RunUntil(100) with drained queue, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop at 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// TestTimerHoldsOneWait: a pending Timer cannot be armed again; it is free
// from inside its own callback and after a Cancel; an Event of an earlier
// wait stays inert against the next; and no wait takes a pooled node.
func TestTimerHoldsOneWait(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if got := recover(); got != want {
				t.Fatalf("panic %v, want %q", got, want)
			}
		}()
		fn()
	}
	e := NewEngine()
	var tm Timer
	var fired []Time
	var fn func()
	fn = func() {
		fired = append(fired, e.Now())
		if tm.Pending() {
			t.Error("a timer reads pending inside its own callback")
		}
		if len(fired) == 1 {
			tm.After(e, 5, fn)
		}
	}
	first := tm.At(e, 10, fn)
	if !tm.Pending() {
		t.Fatal("an armed timer reads free")
	}
	mustPanic("sim: timer already pending", func() { tm.At(e, 20, fn) })
	e.Run()
	first.Cancel() // spent
	ev := tm.At(e, 30, fn)
	first.Cancel() // still spent: the timer's generation moved on
	if !tm.Pending() || e.Pending() != 1 {
		t.Fatalf("a stale handle cancelled the next wait: pending %v, engine %d", tm.Pending(), e.Pending())
	}
	ev.Cancel()
	if tm.Pending() || e.Pending() != 0 {
		t.Fatalf("after Cancel: pending %v, engine %d", tm.Pending(), e.Pending())
	}
	tm.At(e, 40, fn)
	e.Run()
	if fmt.Sprint(fired) != "[10ns 15ns 40ns]" {
		t.Fatalf("fired at %v, want [10ns 15ns 40ns]", fired)
	}
	if e.PooledNodes() != 0 {
		t.Fatalf("timer waits took %d pooled nodes, want 0", e.PooledNodes())
	}
	mustPanic("sim: nil timer callback", func() { tm.At(e, 50, nil) })
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look identical (%d collisions)", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp mean = %v, want ≈5", mean)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stddev = %v", math.Sqrt(variance))
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := NewRand(17)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be the hottest, and the top-10 should dominate.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if counts[0] < counts[500] {
		t.Fatal("Zipf rank 0 colder than rank 500")
	}
	if float64(top)/n < 0.3 {
		t.Fatalf("top-10 carry only %.1f%% of traffic, want skew", 100*float64(top)/n)
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	r := NewRand(1)
	for _, fn := range []func(){
		func() { NewZipf(r, 0, 0.99) },
		func() { NewZipf(r, 10, 0) },
		func() { NewZipf(r, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf with bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// Property: for any set of delays, events fire in sorted order and the clock
// is monotonic.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Fork produces independent streams — a forked generator does not
// disturb nor mirror its parent.
func TestQuickForkIndependence(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewRand(seed)
		fork := a.Fork()
		// Consume from fork; the parent continues its own stream.
		b := NewRand(seed)
		b.Uint64() // account for the Fork() draw
		for i := 0; i < 16; i++ {
			fork.Uint64()
		}
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
