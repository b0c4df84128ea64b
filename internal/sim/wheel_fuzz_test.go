package sim

// FuzzWheelMatchesReference drives the timer wheel and the O(n²) reference
// scheduler of wheel_test.go with the same byte-coded schedule — At on a
// pooled node or on one of a few caller-owned Timers, After, Cancel,
// RunThrough over a window, RunUntil, Step, NextTime, with callbacks that
// schedule (pooled or owned) and cancel in their turn — and compares what
// fired, in which order and at what time, Now, Pending and NextTime after
// every call, and the wheel's own invariants (base ≤ now, every node in the
// slot its time and base assign it and its lvl/slot bytes name, both
// directions of every list link, no node lost or pooled twice, no Timer's
// node pooled or linked while its Timer reads free). `go test` replays the
// seeds; `make fuzz` searches past them.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// The schedule's opcodes (an op byte's low three bits; bit 3 of an After op
// makes its delay negative, bit 3 of an At op puts the event on Timer
// op>>4&3 instead of a pooled node).
const (
	fzAt = iota
	fzAtAgain
	fzAfter
	fzCancel
	fzRunThrough
	fzRunUntil
	fzStep
	fzNextTime
)

// fzSpan decodes a duration from two bytes: a's low three bits name a wheel
// level 0–6 and b is the mantissa there; level code 7 reads the level, 7–10,
// from b's top two bits and keeps three bits of mantissa (a fourth would
// overflow Time at level 10). a's high bits add up to 31 ns so times are not
// all multiples of a slot width.
func fzSpan(a, b byte) Time {
	lvl, m := uint(a&7), Time(b)
	if lvl == 7 {
		lvl, m = 7+uint(b>>6), Time(b&7)
	}
	return m<<(wheelBits*lvl) | Time(a>>3)
}

// fzLater is now + d, saturating one short of math.MaxInt64 — the deadline
// RunUntil reads as "forever" and does not park the clock at, which the
// reference scheduler does not model.
func fzLater(now, d Time) Time {
	if d > math.MaxInt64-1-now {
		return math.MaxInt64 - 1
	}
	return now + d
}

// fzTimers is how many caller-owned Timers a schedule plays with.
const fzTimers = 4

// fzSched is what a schedule needs of a scheduler. atTimer schedules on
// Timer k, first cancelling the wait it holds, if any: a Timer holds one.
type fzSched struct {
	now        func() Time
	at         func(t Time, fn func()) (cancel func())
	atTimer    func(k int, t Time, fn func()) (cancel func())
	after      func(d Time, fn func()) (cancel func())
	runThrough func(deadline Time) bool
	runUntil   func(deadline Time)
	step       func() bool
	nextTime   func() (Time, bool)
	pending    func() int
	check      func() error // the scheduler's own invariants
}

// fzPlay interprets data as a schedule on s and returns the log the two
// schedulers must agree on.
func fzPlay(t *testing.T, data []byte, s fzSched) []string {
	var log []string
	var cancels []func()
	nextID := 0
	// arm returns the callback of a new event: it logs itself and, while its
	// spawn byte lasts, schedules a child — on Timer id%fzTimers when bit 1
	// is set, which may be the Timer this event fired from — and cancels
	// some earlier event.
	var arm func(spawn byte) func()
	arm = func(spawn byte) func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, s.now()))
			if spawn == 0 {
				return
			}
			t := fzLater(s.now(), fzSpan(spawn, spawn*37))
			if spawn&2 != 0 {
				cancels = append(cancels, s.atTimer(id%fzTimers, t, arm(spawn>>1)))
			} else {
				cancels = append(cancels, s.at(t, arm(spawn>>1)))
			}
			if spawn&1 != 0 {
				cancels[(id*7)%len(cancels)]()
			}
		}
	}
	pos := 0
	arg := func() byte {
		if pos < len(data) {
			pos++
			return data[pos-1]
		}
		return 0
	}
	for ops := 0; pos < len(data) && ops < 512; ops++ {
		op := arg()
		switch op & 7 {
		case fzAt, fzAtAgain:
			a, b := arg(), arg()
			t := fzLater(s.now(), fzSpan(a, b))
			if op&8 != 0 {
				cancels = append(cancels, s.atTimer(int(op>>4)%fzTimers, t, arm(arg())))
			} else {
				cancels = append(cancels, s.at(t, arm(arg())))
			}
		case fzAfter:
			d := fzLater(s.now(), fzSpan(arg(), arg())) - s.now()
			if op&8 != 0 {
				d = -d
			}
			cancels = append(cancels, s.after(d, arm(0)))
		case fzCancel:
			if k := int(arg()); len(cancels) > 0 {
				cancels[k%len(cancels)]()
			}
		case fzRunThrough:
			fired := s.runThrough(fzLater(s.now(), fzSpan(arg(), arg())))
			log = append(log, fmt.Sprintf("runThrough fired=%v", fired))
		case fzRunUntil:
			s.runUntil(fzLater(s.now(), fzSpan(arg(), arg())))
		case fzStep:
			log = append(log, fmt.Sprintf("step ran=%v", s.step()))
		case fzNextTime:
			// On request, and logged: the peek must agree with the reference
			// and, being pure, leave every later entry of the log as it was.
			at, ok := s.nextTime()
			log = append(log, fmt.Sprintf("next=%d,%v", at, ok))
		}
		log = append(log, fmt.Sprintf("op %d: now=%d pending=%d", op&7, s.now(), s.pending()))
		if err := s.check(); err != nil {
			t.Fatalf("after op %d (%d bytes in): %v", op&7, pos, err)
		}
	}
	s.runThrough(Time(math.MaxInt64))
	log = append(log, fmt.Sprintf("drained: now=%d pending=%d", s.now(), s.pending()))
	if err := s.check(); err != nil {
		t.Fatalf("after the final drain: %v", err)
	}
	return log
}

// checkWheel verifies the engine's structural invariants: base ≤ now; every
// slot list well formed in both directions (head.prev nil, n.next.prev == n,
// tail the last node) with its occupancy bit set exactly when it is not
// empty; every node in the slot that its time and the current base assign it
// (at ≥ base follows) and that its lvl/slot bytes name; the pending counter;
// of the allocated pooled nodes — the engine's count agreeing — each either
// in the wheel or in the pool, once; and every owned node in the wheel one
// of timers', linked exactly when its Timer reads pending, never pooled.
func checkWheel(e *Engine, allocated int, timers ...Timer) error {
	if e.base > e.now {
		return fmt.Errorf("base %d passed now %d", e.base, e.now)
	}
	linked := make(map[*node]bool)
	queued, owned := 0, 0
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for slot := 0; slot < wheelSlots; slot++ {
			l := &e.slots[lvl][slot]
			if (l.head != nil) != (e.occ[lvl]&(1<<uint(slot)) != 0) {
				return fmt.Errorf("level %d slot %d: occupancy bit disagrees with the list", lvl, slot)
			}
			var prev *node
			for n := l.head; n != nil; prev, n = n, n.next {
				queued++
				if n.owned {
					owned++
				}
				if linked[n] {
					return fmt.Errorf("node at %d is linked twice", n.at)
				}
				linked[n] = true
				if n.prev != prev {
					return fmt.Errorf("level %d slot %d: node at %d has a prev that is not its predecessor", lvl, slot, n.at)
				}
				if int(n.lvl) != lvl || int(n.slot) != slot {
					return fmt.Errorf("node at %d in level %d slot %d says it is in level %d slot %d", n.at, lvl, slot, n.lvl, n.slot)
				}
				if n.at < e.base {
					return fmt.Errorf("level %d slot %d: node at %d below base %d", lvl, slot, n.at, e.base)
				}
				wantLvl := 0
				if d := uint64(n.at ^ e.base); d != 0 {
					wantLvl = (bits.Len64(d) - 1) / wheelBits
				}
				wantSlot := int(uint64(n.at)>>(wheelBits*uint(lvl))) & wheelMask
				if wantLvl != lvl || wantSlot != slot {
					return fmt.Errorf("node at %d (base %d) sits in level %d slot %d, belongs in level %d slot %d",
						n.at, e.base, lvl, slot, wantLvl, wantSlot)
				}
			}
			if l.tail != prev {
				return fmt.Errorf("level %d slot %d: tail is not the list's last node", lvl, slot)
			}
		}
	}
	if queued != e.pending {
		return fmt.Errorf("%d nodes queued, the counter says %d", queued, e.pending)
	}
	if queued-owned+len(e.free) != allocated || e.nodes != allocated {
		return fmt.Errorf("%d pooled nodes queued + %d in the pool, %d allocated, the engine counts %d",
			queued-owned, len(e.free), allocated, e.nodes)
	}
	for _, n := range e.free {
		if n.owned {
			return fmt.Errorf("a Timer's node (at %d) is in the pool", n.at)
		}
	}
	for k := range timers {
		if tm := &timers[k]; tm.Pending() != linked[&tm.n] {
			return fmt.Errorf("timer %d reads pending=%v, linked=%v", k, tm.Pending(), linked[&tm.n])
		}
		if linked[&timers[k].n] {
			owned--
		}
	}
	if owned != 0 {
		return fmt.Errorf("%d owned nodes in the wheel belong to no timer", owned)
	}
	return nil
}

func wheelFzSched(e *Engine) fzSched {
	// An At that finds the pool empty allocates: counted here, as well as in
	// the engine, for checkWheel's no-node-lost check.
	allocated := 0
	get := func() {
		if len(e.free) == 0 {
			allocated++
		}
	}
	var timers [fzTimers]Timer
	var waits [fzTimers]Event
	return fzSched{
		now: e.Now,
		at:  func(t Time, fn func()) func() { get(); return e.At(t, fn).Cancel },
		atTimer: func(k int, t Time, fn func()) func() {
			waits[k].Cancel()
			waits[k] = timers[k].At(e, t, fn)
			return waits[k].Cancel
		},
		after:      func(d Time, fn func()) func() { get(); return e.After(d, fn).Cancel },
		runThrough: e.RunThrough,
		runUntil:   e.RunUntil,
		step:       e.Step,
		nextTime:   e.NextTime,
		pending:    e.Pending,
		check:      func() error { return checkWheel(e, allocated, timers[:]...) },
	}
}

func refFzSched(s *refSched) fzSched {
	at := func(t Time, fn func()) func() {
		ev := s.at(t, fn)
		return func() { ev.dead = true }
	}
	var waits [fzTimers]*refEv
	return fzSched{
		now: func() Time { return s.now },
		at:  at,
		atTimer: func(k int, t Time, fn func()) func() {
			if ev := waits[k]; ev != nil {
				ev.dead = true // fired already, or cancelled here
			}
			ev := s.at(t, fn)
			waits[k] = ev
			return func() { ev.dead = true }
		},
		after: func(d Time, fn func()) func() {
			if d < 0 {
				d = 0
			}
			return at(s.now+d, fn)
		},
		runThrough: s.runThrough,
		runUntil:   s.runUntil,
		step:       s.step,
		nextTime: func() (Time, bool) {
			if ev := s.next(); ev != nil {
				return ev.at, true
			}
			return 0, false
		},
		pending: s.pending,
		check:   func() error { return nil },
	}
}

// jit packs a level and a low-bits offset into a span's first byte.
func jit(lvl, low byte) byte { return lvl | low<<3 }

// fzSeeds are the schedules `go test` replays. The first is an invariant a
// pop can break: draining a queue whose only timer was cancelled must not
// pull base past now, or the next At below base is misplaced (the event at
// 4116 would fire before the one at 10).
var fzSeeds = [][]byte{
	{ // a far timer, cancelled; drain; then schedule inside and below its slot
		fzAt, jit(2, 8), 1, 0, // id 0 at 4104: level 2, slot 1
		fzCancel, 0,
		fzRunThrough, 6, 255, // drains: nothing is pending
		fzAt, jit(2, 20), 1, 0, // id 1 at 4116, the cancelled timer's slot
		fzAt, 0, 10, 0, // id 2 at 10
		fzStep, fzStep, fzStep,
	},
	{ // the same, drained by Step
		fzAt, jit(2, 8), 1, 0,
		fzCancel, 0,
		fzStep,
		fzAt, jit(2, 20), 1, 0,
		fzAt, 0, 10, 0,
		fzRunThrough, 6, 255,
	},
	{ // a deadline inside a level-1 slot [64,128): 70 fires, 100 waits
		fzAt, jit(1, 6), 1, 0, // 70
		fzAt, jit(1, 4), 1, 1, // 68, spawning
		fzAt, 0, 100, 0, // 100
		fzRunThrough, 0, 80,
		fzNextTime,
		fzAt, 0, 5, 0, // 85: below the slot's remaining node
		fzRunUntil, 0, 10,
		fzRunThrough, 1, 2,
	},
	{ // the only node due inside the slot was cancelled from behind the head
		fzAt, 0, 100, 0, // id 0 at 100, the head of level 1 slot 1
		fzAt, jit(1, 6), 1, 0, // id 1 at 70, behind it
		fzCancel, 1,
		fzRunThrough, 0, 80, // nothing is due: the slot must stay shut
		fzAt, 0, 66, 0,
		fzAt, 0, 3, 0,
		fzStep, fzStep,
	},
	{ // a deadline inside a level-2 slot [4096,8192)
		fzAt, jit(2, 9), 1, 0, // 4105
		fzAt, 1, 78, 0, // 4992
		fzAt, 1, 70, 7, // 4480, spawning and cancelling
		fzRunThrough, 1, 66, // to 4224
		fzNextTime,
		fzRunThrough, 1, 5, // to the last fired + 320
		fzAt, 0, 1, 0,
		fzRunUntil, 2, 1,
	},
	{ // level 6 (2³⁶): a deadline short of the slot, then into it
		fzAt, 6, 1, 0,
		fzAt, 6, 1, 3,
		fzAt, 6, 2, 0,
		fzCancel, 0,
		fzRunThrough, 5, 63,
		fzAfter | 8, 3, 9, // negative delay clamps to now
		fzRunThrough, 6, 1,
		fzStep,
	},
	{ // a cancel storm over several levels, mid-schedule
		fzAt, 1, 1, 255, fzAt, 1, 2, 255, fzAt, 1, 3, 255, fzAt, 1, 4, 255,
		fzAt, 2, 1, 255, fzAt, 2, 2, 255, fzAt, 3, 1, 255, fzAt, 0, 9, 255,
		fzRunThrough, 3, 2,
		fzCancel, 1, fzCancel, 2, fzCancel, 3, fzCancel, 4, fzCancel, 5, fzCancel, 6,
		fzCancel, 7, fzCancel, 8, fzCancel, 9, fzCancel, 10, fzCancel, 11, fzCancel, 12,
		fzCancel, 13, fzCancel, 14, fzCancel, 15, fzCancel, 16, fzCancel, 17, fzCancel, 18,
		fzRunUntil, 4, 1,
	},
	{ // times at 2³⁶ − 1, 2³⁶ and 2³⁶ + 1: the level-5/6 boundary from below
		fzRunUntil, 5, 63, fzRunUntil, 4, 63, fzRunUntil, 3, 63, fzRunUntil, 2, 63,
		fzRunUntil, 1, 63, // now = 2³⁶ − 64, base still 0
		fzAt, 0, 65, 0, // 2³⁶ + 1: level 6
		fzAt, 0, 63, 1, // 2³⁶ − 1: level 5, spawning
		fzAt, 0, 64, 0, // 2³⁶
		fzAt, 0, 65, 0, // 2³⁶ + 1 again, behind the first
		fzNextTime,
		fzStep,
		fzCancel, 0, // the head of the level-6 slot, before its cascade
		fzNextTime,
		fzRunThrough, 0, 1,
		fzAt, 0, 1, 0,
		fzStep, fzStep, fzStep,
	},
	{ // levels 7 to 10, 2⁶⁰, and times saturating at math.MaxInt64 − 1
		fzAt, 7, 0x01, 0, // 2⁴²: level 7
		fzAt, 7, 0x42, 3, // 2·2⁴⁸: level 8, spawning and cancelling
		fzAt, 7, 0x83, 0, // 3·2⁵⁴: level 9
		fzAt, 7, 0xC1, 0, // 2⁶⁰: level 10
		fzAt, jit(7, 5), 0xC1, 0, // 2⁶⁰ + 5
		fzAt, 7, 0xC7, 0, // 7·2⁶⁰, level 10's last slot
		fzNextTime,
		fzCancel, 2,
		fzRunThrough, 7, 0xC1, // through 2⁶⁰ exactly
		fzNextTime,
		fzRunUntil, 7, 0xC6, // to 7·2⁶⁰
		fzAt, 7, 0xC7, 1, // saturates: math.MaxInt64 − 1
		fzAt, jit(7, 31), 0xC1, 0, // and so does this, behind it
		fzAfter, 7, 0xC7, // and this: three timers at one time, level 10
		fzCancel, 9, // the middle one
		fzStep,
		fzAt, 0, 1, 0,
		fzRunUntil, 7, 0xC7,
	},
	{ // every timer of one slot cancelled one by one: middle, head, tail, only
		fzAt, 0, 70, 0, fzAt, 0, 80, 0, fzAt, 0, 90, 0, fzAt, 0, 100, 0, // level 1, slot 1
		fzAt, jit(2, 9), 1, 0, // 4105, so the queue is not empty after
		fzCancel, 1,
		fzCancel, 0,
		fzCancel, 3,
		fzNextTime,
		fzCancel, 2, // the slot's occupancy bit goes with it
		fzNextTime,
		fzAt, 0, 75, 0, // into the emptied slot
		fzCancel, 2, // a spent handle: inert
		fzStep,
		fzRunThrough, 2, 2,
	},
	{ // Timers beside pooled nodes at one time; one re-armed while pending, one from its own callback
		fzAt | 8 | 0<<4, 0, 10, 0, // id 0 at 10 on timer 0
		fzAt, 0, 10, 0, // id 1 at 10, pooled, behind it
		fzAt | 8 | 2<<4, 0, 10, 6, // id 2 at 10 on timer 2: its child goes back on timer 2
		fzAt | 8 | 0<<4, jit(2, 8), 1, 0, // id 3 at 4104 on timer 0, which drops id 0
		fzCancel, 0, // id 0's handle: inert now
		fzNextTime,
		fzStep, fzStep,
		fzRunThrough, 3, 1,
		fzCancel, 3, // timer 0's wait
		fzAt | 8 | 0<<4, 0, 1, 0, // and timer 0 is free to wait again
		fzStep,
	},
	{ // Timers cascading from level 6; the slot's owned head cancelled
		fzAt | 8 | 1<<4, 6, 1, 0, // id 0 at 2³⁶ on timer 1
		fzAt, 6, 1, 0, // id 1 at 2³⁶, pooled
		fzAt | 8 | 3<<4, 6, 1, 2, // id 2 at 2³⁶ on timer 3, its child on timer 2
		fzCancel, 0, // the slot's head
		fzNextTime,
		fzAt | 8 | 1<<4, 0, 1, 0, // timer 1 again, at 1
		fzRunThrough, 6, 2,
		fzAfter, 0, 5,
		fzStep, fzStep,
	},
}

func FuzzWheelMatchesReference(f *testing.F) {
	for _, seed := range fzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wheel := fzPlay(t, data, wheelFzSched(NewEngine()))
		ref := fzPlay(t, data, refFzSched(&refSched{}))
		for i := 0; i < len(wheel) && i < len(ref); i++ {
			if wheel[i] != ref[i] {
				t.Fatalf("log entry %d: wheel %q, reference %q", i, wheel[i], ref[i])
			}
		}
		if len(wheel) != len(ref) {
			t.Fatalf("wheel logged %d entries, reference %d", len(wheel), len(ref))
		}
	})
}
