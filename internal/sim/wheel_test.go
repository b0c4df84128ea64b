package sim

// Tests specific to the hierarchical timer wheel: Pending/NextTime after a
// cancel, FIFO exactness across cascade (rollover) boundaries, times past
// 2³⁶ (levels 6 and up), and a randomized equivalence check against a
// trivially-correct reference scheduler. Cancel's unlinking has its own file,
// cancel_test.go.

import (
	"fmt"
	"testing"
)

// wheelSpan is the level-5/6 boundary, 2³⁶ ns ≈ 68.7 s: where a six-level
// wheel ended and its overflow list began. The tests that aimed at that edge
// keep aiming at it — it is still a level rollover, five cascades deep.
const wheelSpan = Time(1) << 36

// TestPendingSkipsCancelledHead: a cancelled event stops counting toward
// Pending and is invisible to NextTime immediately — even (especially) when
// it was the head of the earliest slot, at every depth of the wheel.
func TestPendingSkipsCancelledHead(t *testing.T) {
	cases := []struct {
		name  string
		first Time // earliest event (the one we cancel)
		rest  Time // surviving later event
	}{
		{"level0-head", 3, 7},
		{"level1-head", 100, 200},
		{"high-level-head", 1 << 20, 1<<20 + 5000},
		{"overflow-head", wheelSpan + 10, wheelSpan + 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			fired := 0
			head := e.At(tc.first, func() { t.Fatal("cancelled head fired") })
			e.At(tc.rest, func() { fired++ })
			if got := e.Pending(); got != 2 {
				t.Fatalf("Pending before cancel = %d, want 2", got)
			}
			if at, ok := e.NextTime(); !ok || at != tc.first {
				t.Fatalf("NextTime before cancel = %v,%v, want %v,true", at, ok, tc.first)
			}
			head.Cancel()
			if got := e.Pending(); got != 1 {
				t.Fatalf("Pending after cancelling head = %d, want 1", got)
			}
			if at, ok := e.NextTime(); !ok || at != tc.rest {
				t.Fatalf("NextTime after cancelling head = %v,%v, want %v,true", at, ok, tc.rest)
			}
			e.Run()
			if fired != 1 {
				t.Fatalf("surviving event fired %d times, want 1", fired)
			}
			if got := e.Pending(); got != 0 {
				t.Fatalf("Pending after drain = %d, want 0", got)
			}
			if _, ok := e.NextTime(); ok {
				t.Fatal("NextTime reports an event on a drained engine")
			}
		})
	}
}

// TestNextTimeAllCancelled: when every event has been cancelled the engine
// must report empty, and RunUntil must advance the clock exactly as it does for a
// genuinely empty queue.
func TestNextTimeAllCancelled(t *testing.T) {
	e := NewEngine()
	evs := make([]Event, 0, 8)
	for i := Time(1); i <= 8; i++ {
		evs = append(evs, e.At(i*50, func() { t.Fatal("cancelled event fired") }))
	}
	for _, ev := range evs {
		ev.Cancel()
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending with all-cancelled queue = %d, want 0", got)
	}
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime sees a cancelled event")
	}
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock = %v after RunUntil(1000) on all-cancelled queue, want 1000", e.Now())
	}
}

// TestWheelFIFOAcrossCascade verifies the (at, seq) contract through a
// rollover: equal-time events scheduled before AND after the wheel has
// cascaded toward their segment must still fire in scheduling order.
func TestWheelFIFOAcrossCascade(t *testing.T) {
	e := NewEngine()
	var got []int
	target := Time(1 << 14) // level-2 territory from base 0
	e.At(target, func() { got = append(got, 0) })
	e.At(target, func() { got = append(got, 1) })
	// Fire an early event so popNext cascades base forward, then schedule
	// more equal-time events from inside a callback that runs after the
	// cascade — they must append behind the re-placed pair.
	e.At(5, func() {
		e.At(target, func() { got = append(got, 2) })
		e.At(target, func() { got = append(got, 3) })
	})
	e.Run()
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("equal-time firing order = %v, want [0 1 2 3]", got)
	}
}

// TestOverflowPromotion drives events through level 6: far-future times
// beyond 2³⁶ must be held, cascaded down when the wheel turns into their
// segment, and interleave correctly with near events and with equal-time
// events scheduled directly after.
func TestOverflowPromotion(t *testing.T) {
	e := NewEngine()
	var got []string
	far := wheelSpan + 1000
	e.At(far, func() { got = append(got, "far0") })
	e.At(2*wheelSpan+5, func() { got = append(got, "veryfar") })
	e.At(far, func() { got = append(got, "far1") })
	e.At(10, func() { got = append(got, "near") })
	e.Run()
	want := "[near far0 far1 veryfar]"
	if fmt.Sprint(got) != want {
		t.Fatalf("firing order = %v, want %v", got, want)
	}
	if e.Now() != 2*wheelSpan+5 {
		t.Fatalf("clock = %v, want %v", e.Now(), 2*wheelSpan+5)
	}
}

// TestRunUntilDeadlineWithFarPending: peeking a far-future event to decide a
// window boundary must not disturb placement of later near events — the
// exact pattern the PDES runner produces (publish NextTime, then drain
// injects near-term arrivals).
func TestRunUntilDeadlineWithFarPending(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(1<<20, func() { got = append(got, "far") })
	e.RunUntil(100) // peeks the far event, advances clock to 100
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
	if at, ok := e.NextTime(); !ok || at != 1<<20 {
		t.Fatalf("NextTime = %v,%v, want %v,true", at, ok, Time(1<<20))
	}
	// Near events scheduled after the peek must still run first, in order.
	e.At(200, func() { got = append(got, "a") })
	e.At(200, func() { got = append(got, "b") })
	e.At(150, func() { got = append(got, "first") })
	e.Run()
	want := "[first a b far]"
	if fmt.Sprint(got) != want {
		t.Fatalf("firing order = %v, want %v", got, want)
	}
}

// refSched is a trivially-correct reference scheduler: a flat slice scanned
// for the minimum (at, seq) live entry on every pop. O(n²) and obviously
// faithful to the engine's documented total order.
type refSched struct {
	now  Time
	seq  uint64
	evs  []*refEv
	dead int
}

type refEv struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

func (s *refSched) at(t Time, fn func()) *refEv {
	ev := &refEv{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.evs = append(s.evs, ev)
	return ev
}

// next returns the minimum (at, seq) live entry, or nil.
func (s *refSched) next() *refEv {
	var best *refEv
	for _, ev := range s.evs {
		if ev.dead {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

// pending counts the live entries, as Engine.Pending does.
func (s *refSched) pending() int {
	n := 0
	for _, ev := range s.evs {
		if !ev.dead {
			n++
		}
	}
	return n
}

// step fires the earliest live entry and reports whether there was one.
func (s *refSched) step() bool {
	best := s.next()
	if best == nil {
		return false
	}
	best.dead = true
	s.now = best.at
	best.fn()
	return true
}

// runThrough mirrors Engine.RunThrough: fire everything due by the deadline,
// leave the clock at the last event fired, report whether any fired.
func (s *refSched) runThrough(deadline Time) (fired bool) {
	for {
		best := s.next()
		if best == nil || best.at > deadline {
			return fired
		}
		s.step()
		fired = true
	}
}

// runUntil mirrors Engine.RunUntil: runThrough, then park the clock.
func (s *refSched) runUntil(deadline Time) {
	s.runThrough(deadline)
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *refSched) run() {
	for s.step() {
	}
}

// TestWheelMatchesReference fuzzes the wheel against the reference
// scheduler: identical randomized storms of schedules (delays spanning every
// wheel level and the overflow list, with deliberate ties) and cancels must
// produce identical firing logs.
func TestWheelMatchesReference(t *testing.T) {
	delays := func(r *Rand) Time {
		switch r.Intn(6) {
		case 0:
			return Time(r.Intn(4)) // level-0 ties
		case 1:
			return Time(1 + r.Intn(64)) // level 0/1 boundary
		case 2:
			return Time(60 + r.Intn(8)) // straddle the 64 ns rollover
		case 3:
			return Time(1 + r.Intn(1<<14)) // mid levels
		case 4:
			return Time(1<<18 - 4 + r.Intn(8)) // high-level boundary
		default:
			return wheelSpan - 4 + Time(r.Intn(8)) // overflow promotion edge
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			storm := func(schedule func(Time, func()) func(), run func()) []string {
				r := NewRand(seed)
				var log []string
				var cancels []func()
				var tick func(depth int)
				id := 0
				tick = func(depth int) {
					for k := 0; k < 6; k++ {
						me := id
						id++
						d := delays(r)
						cancel := schedule(d, func() {
							log = append(log, fmt.Sprintf("fire %d", me))
							if depth < 40 && r.Intn(3) > 0 {
								tick(depth + 1)
							}
						})
						cancels = append(cancels, cancel)
					}
					// Cancel a deterministic subset (possibly already fired —
					// both sides must treat that as a no-op).
					for len(cancels) > 12 {
						i := r.Intn(len(cancels))
						cancels[i]()
						cancels[i] = cancels[len(cancels)-1]
						cancels = cancels[:len(cancels)-1]
					}
				}
				tick(0)
				run()
				return log
			}

			e := NewEngine()
			wheelLog := storm(func(d Time, fn func()) func() {
				ev := e.After(d, fn)
				return ev.Cancel
			}, e.Run)

			ref := &refSched{}
			refLog := storm(func(d Time, fn func()) func() {
				ev := ref.at(ref.now+d, fn)
				return func() { ev.dead = true; ev.fn = func() {} }
			}, ref.run)

			if len(wheelLog) != len(refLog) {
				t.Fatalf("wheel fired %d events, reference %d", len(wheelLog), len(refLog))
			}
			for i := range refLog {
				if wheelLog[i] != refLog[i] {
					t.Fatalf("event %d: wheel %q, reference %q", i, wheelLog[i], refLog[i])
				}
			}
			if len(wheelLog) == 0 {
				t.Fatal("storm fired nothing")
			}
		})
	}
}

// TestStopLeavesQueueIntact: Stop during a run must leave pending events
// queued and resumable — including one parked at level 6.
func TestStopLeavesQueueIntact(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { e.Stop() })
	e.At(20, func() { fired++ })
	e.At(wheelSpan+50, func() { fired++ })
	e.Run()
	if e.Now() != 10 || fired != 0 {
		t.Fatalf("after Stop: now=%v fired=%d, want 10, 0", e.Now(), fired)
	}
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Stop = %d, want 2", got)
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("resumed run fired %d, want 2", fired)
	}
}

// TestDrainAllCancelledKeepsBase: draining a queue whose every timer was
// cancelled fires nothing and leaves base ≤ now, so later schedules — inside
// the cancelled timer's old slot, below it, and at its very time — fire in
// reference order. (Were base to move to that slot's start, 4096, the At at
// 10 would be misplaced and the clock would run backwards.) Drained by Run,
// by Step and by RunThrough.
func TestDrainAllCancelledKeepsBase(t *testing.T) {
	drains := map[string]func(*Engine){
		"Run":  func(e *Engine) { e.Run() },
		"Step": func(e *Engine) { e.Step() },
		"RunThrough": func(e *Engine) {
			if e.RunThrough(1 << 20) {
				t.Fatal("RunThrough reports an event fired on an all-cancelled queue")
			}
		},
	}
	for name, drain := range drains {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			ref := &refSched{}
			var got, want []string
			e.At(5000, func() { t.Fatal("cancelled timer fired") }).Cancel()
			drain(e)
			if e.base > e.Now() {
				t.Fatalf("draining an all-cancelled queue moved base to %d, past now %d", e.base, e.Now())
			}
			for _, at := range []Time{4116, 10, 5000, 4097} {
				at := at
				e.At(at, func() { got = append(got, fmt.Sprint(at, "@", e.Now())) })
				ref.at(at, func() { want = append(want, fmt.Sprint(at, "@", ref.now)) })
			}
			e.Run()
			ref.run()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("firing order %v, reference %v", got, want)
			}
		})
	}
}
