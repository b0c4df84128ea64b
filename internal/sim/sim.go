// Package sim provides a deterministic discrete-event simulation engine.
//
// All PMNet experiments run on a virtual clock: events are scheduled at
// absolute virtual times (nanosecond resolution) and executed in time order.
// Nothing in the engine sleeps or reads the wall clock, so experiments are
// bit-reproducible given a seed and immune to host scheduling or GC jitter —
// the property that makes a faithful data-plane reproduction possible in Go.
//
// The engine is built for zero steady-state allocation: pending events live
// in a hierarchical timer wheel of intrusive nodes. A record that waits over
// and over — a packet, a PM operation, a repair timer — embeds its own node
// (Timer) and is itself what the wheel links; a closure scheduled with
// Engine.At takes a pooled node recycled through a per-engine free list. So
// At/After/Run allocate nothing once the pool has warmed up. The pool is
// owned by exactly one engine and touched only from its (single) driving
// goroutine — never a sync.Pool, whose cross-goroutine stealing would make
// object identity depend on host scheduling.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time package conventions but on the virtual
// clock. A sim.Time difference is a duration in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual-time difference to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros returns the time expressed in (possibly fractional) microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return t.Duration().String() }

// Timer-wheel geometry: wheelLevels levels of wheelSlots slots each, level
// lvl's slots wheelSlots^lvl nanoseconds wide. Level 0 slots are 1 ns wide,
// so every node in a level-0 slot shares the same `at` and intra-slot FIFO
// order IS (at, seq) order. Eleven levels cover 66 bits, more than the 63 of
// a non-negative Time: every schedulable time has a slot, and the wheel is
// the only structure events wait in.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 11
)

// node is one event record, linked intrusively into a wheel slot's
// doubly-linked FIFO list. A pooled node is either in exactly one slot list
// (pending) or in the engine's free list; it moves to the free list the moment
// it is popped to fire or cancelled. An owned node (the one inside a Timer)
// is either in a slot list or in its owner, and never pooled.
type node struct {
	at         Time
	seq        uint64
	fn         func()
	next, prev *node   // intrusive slot-list links; the head's prev is nil
	eng        *Engine // owner, so Event.Cancel can reach the wheel
	// gen is bumped every time the node is recycled; an Event handle captures
	// the gen it was issued under, so handles to already-fired (and possibly
	// reused) nodes become inert instead of cancelling a stranger's event. A
	// handle whose gen matches therefore names a node that is in the wheel.
	gen uint64
	// lvl and slot say which list the node is linked into, so Cancel finds
	// the list's head, tail and occupancy bit without recomputing placement
	// against a base that may have moved since.
	lvl, slot uint8
	// owned marks a Timer's node: release leaves it to its owner.
	owned bool
}

// Timer is a wheel node for a record to embed, so the record that waits is
// itself what the wheel links and no pooled node is taken beside it. It
// holds one wait at a time: scheduling a pending Timer panics, and a Timer
// is free again the moment its callback starts or its wait is cancelled. The
// zero value is ready to use. A Timer must stay where it is while pending (it
// is linked by address), and an owner that recycles its record keeps the
// Timer rather than zeroing it: the generation it carries is what keeps an
// Event issued for an earlier wait inert.
type Timer struct{ n node }

// At schedules fn to run at absolute virtual time t on e, as Engine.At does
// — the same (at, seq) order, interleaved with pooled events — with the
// Timer's own node. A nil fn panics: it would leave the Timer looking free
// while it is linked.
func (tm *Timer) At(e *Engine, t Time, fn func()) Event {
	n := &tm.n
	if n.fn != nil {
		panic("sim: timer already pending")
	}
	if fn == nil {
		panic("sim: nil timer callback")
	}
	n.eng, n.owned = e, true
	return e.schedule(n, t, fn)
}

// After is At, d from now, with Engine.After's clamping of negative delays.
func (tm *Timer) After(e *Engine, d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return tm.At(e, e.now+d, fn)
}

// Pending reports whether the Timer is waiting in a wheel.
func (tm *Timer) Pending() bool { return tm.n.fn != nil }

// Event is a handle to a scheduled callback. Events with equal times run in
// the order they were scheduled (FIFO tie-break via sequence numbers) so the
// engine is fully deterministic. The handle is a value: it stays valid —
// inert, not dangling — after the event fires and its node is recycled.
// The zero Event refers to nothing; Cancel on it is a no-op.
type Event struct {
	n   *node
	gen uint64
}

// Cancel prevents a pending event from running. It is eager and O(1): the
// node is unlinked from its slot list (clearing the slot's occupancy bit if
// it was the last one there) and returned to the pool (or, a Timer's, left
// free in its owner) at once, so Pending
// and NextTime never see it again and no pop or cascade ever meets a
// cancelled node. Cancelling an event that has already fired or been
// cancelled — even if its pooled node has since been reused, even from
// inside its own callback — is a no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen {
		return
	}
	e := n.eng
	l := &e.slots[n.lvl][n.slot]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	if l.head == nil {
		e.occ[n.lvl] &^= 1 << n.slot
	}
	e.pending--
	e.release(n)
}

// slotList is one wheel slot's FIFO of nodes (append at tail, consume at
// head). Within a level-0 slot all nodes share the same `at`, so FIFO order
// is exactly (at, seq) order.
type slotList struct {
	head, tail *node
}

// Engine owns the virtual clock and the pending event queue: one timer
// wheel, in which an occupied slot always holds at least one pending event.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now Time
	// base is the wheel's reference time. Invariants: base never decreases,
	// base ≤ now whenever the engine is between events (base only advances
	// in open, to the start of a slot that holds an event about to fire),
	// and every node in the wheel has at ≥ base. Together these guarantee
	// At(t ≥ now) always places at or above base — no "past the wheel" case
	// exists.
	base    Time
	seq     uint64
	pending int // nodes in the wheel
	stopped bool
	ran     uint64
	slots   [wheelLevels][wheelSlots]slotList
	occ     [wheelLevels]uint64 // per-level occupancy bitmaps
	free    []*node             // recycled nodes
	nodes   int                 // pooled nodes ever allocated
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of events still queued. A cancelled event
// stops counting the moment Cancel returns.
func (e *Engine) Pending() int { return e.pending }

// NextTime returns the virtual time of the earliest pending event, or false
// when the queue is empty. It is a pure peek: it reads the wheel and moves
// nothing. The conservative PDES runner (internal/sim/pdes) peeks every
// shard's next event at each barrier to pick the epoch window.
func (e *Engine) NextTime() (Time, bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] == 0 {
			continue
		}
		// The lowest occupied slot of the lowest occupied level holds the
		// earliest pending node; at level ≥ 1 the slot list is unsorted, so
		// scan it for the minimum time.
		n := e.slots[lvl][bits.TrailingZeros64(e.occ[lvl])].head
		best := n.at
		if lvl > 0 {
			for n = n.next; n != nil; n = n.next {
				if n.at < best {
					best = n.at
				}
			}
		}
		return best, true
	}
	return 0, false
}

// get pops a recycled node or allocates a fresh one (pool not yet warm).
func (e *Engine) get() *node {
	if k := len(e.free) - 1; k >= 0 {
		n := e.free[k]
		e.free = e.free[:k]
		return n
	}
	e.nodes++
	return &node{eng: e}
}

// release ends an unlinked node's wait and returns a pooled one to the free
// list. Bumping gen first makes every outstanding handle to it inert.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	if !n.owned {
		e.free = append(e.free, n)
	}
}

// PooledNodes returns how many pooled nodes the engine has allocated: the
// high-water mark of closures scheduled with At at once. Timers take none.
func (e *Engine) PooledNodes() int { return e.nodes }

// At schedules fn to run at absolute virtual time t, on a pooled node.
// Scheduling in the past panics: it indicates a model bug, not a recoverable
// condition.
func (e *Engine) At(t Time, fn func()) Event {
	return e.schedule(e.get(), t, fn)
}

// schedule links n into the wheel to run fn at t.
func (e *Engine) schedule(n *node, t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.seq++
	e.pending++
	e.place(n)
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d nanoseconds from now. Negative delays are
// clamped to zero (run "immediately", after currently-queued same-time work).
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(math.MaxInt64))
}

// RunThrough executes events with time ≤ deadline and leaves the clock at the
// last executed event: it never parks the clock at the deadline, so a run
// carved into windows (the epochs of internal/sim/pdes) ends at the same
// virtual time as one undivided Run. It reports whether any event fired.
//
// Each event costs one walk of the wheel, not a peek and then a pop: popNext
// itself stops at the deadline (see there for when it has to look inside a
// slot to tell).
func (e *Engine) RunThrough(deadline Time) (fired bool) {
	e.stopped = false
	for !e.stopped {
		n := e.popNext(deadline)
		if n == nil {
			break
		}
		e.fire(n)
		fired = true
	}
	return fired
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (unless Stop was called, or the deadline is Run's "forever").
func (e *Engine) RunUntil(deadline Time) {
	e.RunThrough(deadline)
	if !e.stopped && e.now < deadline && deadline < Time(math.MaxInt64) {
		e.now = deadline
	}
}

// Step executes exactly one pending event and reports whether one ran. It
// shares popNext/fire with RunUntil so the two paths cannot diverge.
func (e *Engine) Step() bool {
	n := e.popNext(Time(math.MaxInt64))
	if n == nil {
		return false
	}
	e.fire(n)
	return true
}

// fire advances the clock to n and runs its callback. The node is recycled
// before the callback executes, so the callback may schedule new events that
// reuse it immediately.
func (e *Engine) fire(n *node) {
	e.now = n.at
	e.ran++
	fn := n.fn
	e.release(n)
	fn()
}

// Hierarchical timer wheel ordered by (at, seq), with O(1) cancel and O(1)
// amortized schedule/pop for the near-future-clustered event populations
// network simulation produces (calendar-queue argument; same structure as
// the kernel timer wheel, but exact: nothing ever fires early or late, far
// events cascade down level by level as base advances).
//
// Placement: a node lands at the smallest level lvl whose slot width covers
// the highest bit where `at` differs from `base` — i.e. levels hold nodes
// sharing all digits above lvl with base. That makes the levels strictly
// time-ordered (everything at a lower level runs before anything at a
// higher one) and the slots within a level time-ordered by index, so the
// earliest pending node is always in the lowest occupied slot of the lowest
// occupied level; no ring wraparound exists to reason about.
//
// FIFO exactness: level-0 slots are 1 ns wide, so equal-`at` nodes meet in
// one level-0 list. Direct inserts append in seq order (seq is monotone);
// cascades detach a whole higher-level list and re-place it preserving
// relative order; and a direct level-0 insert can never interleave ahead of
// an equal-`at` node still sitting at a higher level, because after every
// cascade all remaining level ≥ 1 nodes differ from base above bit
// wheelBits — they cannot share an `at` with any level-0-placeable time.

// place links a node into the slot its time and the current base assign it.
// Every non-negative time has one: at and base are both below 2⁶³, so their
// highest differing bit is at most bit 62, which is level 10.
func (e *Engine) place(n *node) {
	d := uint64(n.at ^ e.base)
	var lvl int
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	slot := int(uint64(n.at)>>(wheelBits*lvl)) & wheelMask
	l := &e.slots[lvl][slot]
	n.lvl, n.slot = uint8(lvl), uint8(slot)
	n.next, n.prev = nil, l.tail
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	e.occ[lvl] |= 1 << uint(slot)
}

// popNext removes and returns the earliest pending node if its time is
// ≤ deadline, or nil (queue untouched) when there is none. Level-0 pops are
// O(1): the head of the lowest occupied slot is the earliest event, compared
// with the deadline and taken. Otherwise open moves base to the lowest
// occupied slot's start and cascades that slot down, each node moving at
// most wheelLevels times over its lifetime (amortized O(1)).
func (e *Engine) popNext(deadline Time) *node {
	for e.occ[0] == 0 {
		if !e.open(deadline) {
			return nil
		}
	}
	slot := bits.TrailingZeros64(e.occ[0])
	l := &e.slots[0][slot]
	n := l.head
	if n.at > deadline {
		return nil
	}
	l.head = n.next
	if l.head == nil {
		l.tail = nil
		e.occ[0] &^= 1 << uint(slot)
	} else {
		// The new head must not keep a prev that points at a node about to
		// be recycled: Cancel reads prev == nil as "I am the head".
		l.head.prev = nil
	}
	e.pending--
	return n
}

// open advances base to the earliest occupied slot above level 0 and
// redistributes that slot's nodes to lower levels — provided the slot holds
// an event at or before the deadline. It reports whether a slot was opened;
// false means nothing is due by the deadline, and base has not moved.
//
// base may never pass a pending event, and never pass now (At places relative
// to base, and a time below base has no slot): so a slot is opened only when
// an event inside it is certain to fire next. An occupied slot always holds
// one; whether it is due is read off the slot's span where possible: a slot
// that ends at or before the deadline (always, under Run; nearly always
// inside a PDES window) is opened without looking at its list, and only a
// slot the deadline falls inside is scanned for a node at or before it.
func (e *Engine) open(deadline Time) bool {
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] == 0 {
			continue
		}
		slot := bits.TrailingZeros64(e.occ[lvl])
		l := &e.slots[lvl][slot]
		n := l.head
		// All lower levels are empty, so the earliest pending time is inside
		// this slot, which covers [start, start + 1<<shift). At level 10 the
		// span's shift count is 66: Go defines that shift as 0, span-1 is
		// all ones and base contributes nothing — the right slot start,
		// since level 10's slot index is every bit of a Time above bit 59.
		shift := uint(wheelBits * lvl)
		span := Time(1) << (shift + wheelBits)
		start := e.base&^(span-1) | Time(slot)<<shift
		if deadline-start < Time(1)<<shift-1 && !dueBy(n, deadline) {
			return false
		}
		// Advance base to the slot's start and re-place its list. Relative
		// order is preserved, and every node lands at a lower level (its
		// differing bits vs the new base are below this slot's width).
		e.base = start
		*l = slotList{}
		e.occ[lvl] &^= 1 << uint(slot)
		for n != nil {
			next := n.next
			e.place(n)
			n = next
		}
		return true
	}
	return false
}

// dueBy reports whether the slot list starting at n holds a node with
// time ≤ deadline.
func dueBy(n *node, deadline Time) bool {
	for ; n != nil; n = n.next {
		if n.at <= deadline {
			return true
		}
	}
	return false
}
