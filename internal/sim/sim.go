// Package sim provides a deterministic discrete-event simulation engine.
//
// All PMNet experiments run on a virtual clock: events are scheduled at
// absolute virtual times (nanosecond resolution) and executed in time order.
// Nothing in the engine sleeps or reads the wall clock, so experiments are
// bit-reproducible given a seed and immune to host scheduling or GC jitter —
// the property that makes a faithful data-plane reproduction possible in Go.
//
// The engine is built for zero steady-state allocation: pending events live
// in a hierarchical timer wheel of pooled nodes recycled through a per-engine
// free list, so At/After/Run allocate nothing once the pool has warmed up.
// The pool is owned by exactly one engine and touched only from its (single)
// driving goroutine — never a sync.Pool, whose cross-goroutine stealing would
// make object identity depend on host scheduling.
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

// noCancel is the cancelGen sentinel: handle generations start at zero and
// only ever increase, so no handle can match it.
const noCancel = ^uint64(0)

// Timer-wheel geometry: wheelLevels levels of wheelSlots slots each, level
// lvl's slots wheelSlots^lvl nanoseconds wide. Level 0 slots are 1 ns wide,
// so every node in a level-0 slot shares the same `at` and intra-slot FIFO
// order IS (at, seq) order. The wheel spans wheelSlots^wheelLevels ns
// (≈68.7 s) ahead of base; anything farther waits in the sorted overflow
// list until the wheel turns into its segment.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	topShift    = wheelBits * wheelLevels
)

// compactMin is the dead-node floor below which Cancel never triggers a
// compaction sweep; above it, a sweep runs whenever dead nodes outnumber
// live ones. A sweep visits every queued node, so it costs at most two node
// visits per cancel that led up to it, and the pool's footprint stays within
// 2× the live population. (A tighter trigger buys little memory and costs
// a sweep of the whole standing population — thousands of 5 ms EntryTTL
// timers at saturation — every few client-timer cancels.)
const compactMin = 16

// node is one pooled event record, linked intrusively into a wheel slot's
// FIFO list (or held in the sorted overflow list). Nodes are recycled
// through the engine's free list when they fire or are swept after a lazy
// cancel.
type node struct {
	at   Time
	seq  uint64
	fn   func()
	next *node   // intrusive slot-list link
	eng  *Engine // owner, so Event.Cancel can reach the counters
	// gen is bumped every time the node is recycled; an Event handle captures
	// the gen it was issued under, so handles to already-fired (and possibly
	// reused) nodes become inert instead of cancelling a stranger's event.
	gen uint64
	// cancelGen records the handle generation that cancelled this node
	// (noCancel otherwise), which lets exactly that handle observe
	// Cancelled() == true even after the node is reused.
	cancelGen uint64
	// queued is true while the node sits in the wheel or overflow list;
	// dead marks a lazily cancelled node awaiting unlink (still queued).
	queued bool
	dead   bool
}

// Event is a handle to a scheduled callback. Events with equal times run in
// the order they were scheduled (FIFO tie-break via sequence numbers) so the
// engine is fully deterministic. The handle is a value: it stays valid —
// inert, not dangling — after the event fires and its node is recycled.
// The zero Event refers to nothing; Cancel on it is a no-op.
type Event struct {
	n   *node
	gen uint64
	at  Time
}

// Cancel prevents a pending event from running. Cancellation is lazy and
// O(1): the node is marked dead in place (it immediately stops counting
// toward Pending and is invisible to NextTime) and is unlinked later — when
// the wheel reaches it, or by a compaction sweep once dead nodes outnumber
// live ones. Cancelling an event that has already fired — even if its pooled
// node has since been reused — is a no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen || !n.queued || n.dead {
		return
	}
	e := n.eng
	n.dead = true
	n.fn = nil
	n.cancelGen = ev.gen
	e.live--
	e.dead++
	if e.dead > compactMin && e.dead > e.live {
		e.compact()
	}
}

// Cancelled reports whether this event was cancelled before running.
func (ev Event) Cancelled() bool { return ev.n != nil && ev.n.cancelGen == ev.gen }

// Time returns the virtual time the event is (or was) scheduled for.
func (ev Event) Time() Time { return ev.at }

// slotList is one wheel slot's FIFO of nodes (append at tail, consume at
// head). Within a level-0 slot all nodes share the same `at`, so FIFO order
// is exactly (at, seq) order.
type slotList struct {
	head, tail *node
}

// Engine owns the virtual clock and the pending event queue.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now Time
	// base is the wheel's reference time. Invariants: base never decreases,
	// base ≤ now whenever the engine is between events (base only advances
	// in popNext, to the start of a slot that holds a live event about to
	// fire — never on the strength of cancelled nodes, which fire nothing),
	// and every node in the wheel has at ≥ base. Together these guarantee
	// At(t ≥ now) always places at or above base — no "past the wheel" case
	// exists.
	base    Time
	seq     uint64
	live    int // queued, not cancelled
	dead    int // queued, lazily cancelled, awaiting unlink
	stopped bool
	ran     uint64
	slots   [wheelLevels][wheelSlots]slotList
	occ     [wheelLevels]uint64 // per-level occupancy bitmaps
	// ov holds nodes beyond the wheel span, sorted by (at, seq); ovOff is
	// the consumed-prefix cursor so promotion never memmoves the slice.
	ov    []*node
	ovOff int
	free  []*node // recycled nodes
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of live events still queued. Lazily cancelled
// nodes awaiting unlink are not counted.
func (e *Engine) Pending() int { return e.live }

// NextTime returns the virtual time of the earliest live pending event, or
// false when the queue is empty. Lazily cancelled nodes are skipped — a
// cancelled head never shows through. The conservative PDES runner
// (internal/sim/pdes) peeks every shard's next event at each barrier to pick
// the epoch window; the peek must not disturb the event order (it frees dead
// nodes it walks over, but never moves a live node or advances the wheel).
func (e *Engine) NextTime() (Time, bool) {
	return e.peekTime()
}

// get pops a recycled node or allocates a fresh one (pool not yet warm).
func (e *Engine) get() *node {
	if k := len(e.free) - 1; k >= 0 {
		n := e.free[k]
		e.free = e.free[:k]
		return n
	}
	return &node{eng: e, cancelGen: noCancel}
}

// release returns a node to the free list. Bumping gen first makes every
// outstanding handle to it inert.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	n.next = nil
	n.queued = false
	n.dead = false
	e.free = append(e.free, n)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a model bug, not a recoverable condition.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	n := e.get()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	n.queued = true
	e.seq++
	e.live++
	e.place(n)
	return Event{n: n, gen: n.gen, at: t}
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

// Hierarchical timer wheel ordered by (at, seq) — the same total order as
// the previous 4-ary heap, with O(1) amortized schedule/pop for the
// near-future-clustered event populations network simulation produces
// (calendar-queue argument; same structure as the kernel timer wheel, but
// exact: nothing ever fires early or late, far events cascade down level by
// level as base advances).
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

// place links a queued node into the wheel (or the sorted overflow list).
// The caller has set at/seq/queued; dead nodes are never placed.
func (e *Engine) place(n *node) {
	d := uint64(n.at ^ e.base)
	var lvl int
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	if lvl >= wheelLevels {
		e.ovInsert(n)
		return
	}
	slot := int(uint64(n.at)>>(wheelBits*lvl)) & wheelMask
	l := &e.slots[lvl][slot]
	n.next = nil
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	e.occ[lvl] |= 1 << uint(slot)
}

// ovInsert binary-inserts a node into the overflow list, keeping it sorted
// by (at, seq). Far-future scheduling is rare and usually in increasing time
// order, so the insert almost always appends.
func (e *Engine) ovInsert(n *node) {
	liveTail := e.ov[e.ovOff:]
	lo, hi := 0, len(liveTail)
	for lo < hi {
		mid := (lo + hi) / 2
		m := liveTail[mid]
		if m.at < n.at || (m.at == n.at && m.seq < n.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.ov = append(e.ov, nil)
	at := e.ovOff + lo
	copy(e.ov[at+1:], e.ov[at:])
	e.ov[at] = n
}

// peekTime returns the earliest live pending time. It frees dead nodes it
// walks over (front-of-slot and overflow-front) but never moves a live node
// or advances base, so peeking cannot perturb event order.
func (e *Engine) peekTime() (Time, bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for e.occ[lvl] != 0 {
			head := e.liveHead(lvl, bits.TrailingZeros64(e.occ[lvl]))
			if head == nil {
				continue
			}
			// The lowest occupied slot of the lowest occupied level holds the
			// earliest pending node; at level ≥ 1 the slot list is unsorted,
			// so scan it for the minimum live time.
			best := head.at
			if lvl > 0 {
				for n := head.next; n != nil; n = n.next {
					if !n.dead && n.at < best {
						best = n.at
					}
				}
			}
			return best, true
		}
	}
	for e.ovOff < len(e.ov) {
		n := e.ov[e.ovOff]
		if !n.dead {
			return n.at, true
		}
		e.ov[e.ovOff] = nil
		e.ovOff++
		e.dead--
		e.release(n)
	}
	if e.ovOff > 0 {
		e.ov = e.ov[:0]
		e.ovOff = 0
	}
	return 0, false
}

// liveHead frees the cancelled nodes at the front of a slot's list and returns
// the first live one — or nil, having emptied the slot and cleared its
// occupancy bit. It never moves a live node or base.
func (e *Engine) liveHead(lvl, slot int) *node {
	l := &e.slots[lvl][slot]
	for l.head != nil && l.head.dead {
		n := l.head
		l.head = n.next
		e.dead--
		e.release(n)
	}
	if l.head == nil {
		l.tail = nil
		e.occ[lvl] &^= 1 << uint(slot)
	}
	return l.head
}

// popNext removes and returns the earliest live pending node if its time is
// ≤ deadline, or nil (queue untouched but for freed dead nodes) when there is
// none. Level-0 pops are O(1): the head of the lowest occupied slot is the
// earliest event, compared with the deadline and taken. Otherwise open moves
// base to the lowest occupied slot's start and cascades that slot down, each
// node moving at most wheelLevels times over its lifetime (amortized O(1)).
func (e *Engine) popNext(deadline Time) *node {
	for {
		for e.occ[0] != 0 {
			slot := bits.TrailingZeros64(e.occ[0])
			l := &e.slots[0][slot]
			n := l.head
			if !n.dead && n.at > deadline {
				return nil
			}
			l.head = n.next
			if l.head == nil {
				l.tail = nil
				e.occ[0] &^= 1 << uint(slot)
			}
			if n.dead {
				e.dead--
				e.release(n)
				continue
			}
			n.next = nil
			n.queued = false
			e.live--
			return n
		}
		if !e.open(deadline) {
			return nil
		}
	}
}

// open advances base to the earliest occupied slot above level 0 (or the
// earliest overflow segment once the wheel is empty) and redistributes that
// slot's nodes to lower levels, freeing dead ones — provided the slot holds a
// live event at or before the deadline. It reports whether a slot was opened;
// false means nothing is due by the deadline, and base has not moved.
//
// base may never pass a live event, and never pass now (At places relative to
// base, and a time below base has no slot): so a slot is opened only when an
// event inside it is certain to fire next. Dead nodes are stripped from its
// head first — a slot of cancelled timers alone is emptied where it stands,
// it must not pull base forward — and then a live head proves the slot holds
// an event. Whether one is due is read off the slot's span where possible: a
// slot that ends at or before the deadline (always, under Run; nearly always
// inside a PDES window) is opened without looking at its list, and only a
// slot the deadline falls inside is scanned for a live node at or before it.
func (e *Engine) open(deadline Time) bool {
	for lvl := 1; lvl < wheelLevels; lvl++ {
		for e.occ[lvl] != 0 {
			slot := bits.TrailingZeros64(e.occ[lvl])
			n := e.liveHead(lvl, slot)
			if n == nil {
				continue
			}
			shift := uint(wheelBits * lvl)
			span := Time(1) << (shift + wheelBits)
			// All lower levels are empty, so the earliest pending time is inside
			// this slot, which covers [start, start + 1<<shift).
			start := e.base&^(span-1) | Time(slot)<<shift
			if deadline-start < Time(1)<<shift-1 && !dueBy(n, deadline) {
				return false
			}
			// Advance base to the slot's start and re-place its list. Relative
			// order is preserved, and every node lands at a lower level (its
			// differing bits vs the new base are below this slot's width).
			e.base = start
			e.slots[lvl][slot] = slotList{}
			e.occ[lvl] &^= 1 << uint(slot)
			for n != nil {
				next := n.next
				if n.dead {
					e.dead--
					e.release(n)
				} else {
					e.place(n)
				}
				n = next
			}
			return true
		}
	}
	// Wheel empty: turn it into the earliest overflow segment and promote
	// that segment's (sorted) prefix.
	for e.ovOff < len(e.ov) {
		n := e.ov[e.ovOff]
		if !n.dead && n.at > deadline {
			return false
		}
		e.ov[e.ovOff] = nil
		e.ovOff++
		if n.dead {
			e.dead--
			e.release(n)
			continue
		}
		e.base = n.at >> topShift << topShift
		e.place(n)
		for e.ovOff < len(e.ov) {
			m := e.ov[e.ovOff]
			if uint64(m.at)>>topShift != uint64(n.at)>>topShift {
				break
			}
			e.ov[e.ovOff] = nil
			e.ovOff++
			if m.dead {
				e.dead--
				e.release(m)
			} else {
				e.place(m)
			}
		}
		if e.ovOff == len(e.ov) {
			e.ov = e.ov[:0]
			e.ovOff = 0
		}
		return true
	}
	if e.ovOff > 0 {
		e.ov = e.ov[:0]
		e.ovOff = 0
	}
	return false
}

// dueBy reports whether the slot list starting at n holds a live node with
// time ≤ deadline.
func dueBy(n *node, deadline Time) bool {
	for ; n != nil; n = n.next {
		if !n.dead && n.at <= deadline {
			return true
		}
	}
	return false
}

// compact sweeps every slot list and the overflow list, unlinking and
// recycling dead nodes in place (live nodes keep their relative order).
// Triggered by Cancel once dead nodes outnumber live ones, so its O(n) walk
// amortizes to O(1) per cancel and the pool's footprint stays bounded by
// ~2× the live population.
func (e *Engine) compact() {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := e.occ[lvl]
		for occ != 0 {
			slot := bits.TrailingZeros64(occ)
			occ &^= 1 << uint(slot)
			l := &e.slots[lvl][slot]
			var head, tail *node
			for n := l.head; n != nil; {
				next := n.next
				if n.dead {
					e.dead--
					e.release(n)
				} else {
					n.next = nil
					if tail == nil {
						head = n
					} else {
						tail.next = n
					}
					tail = n
				}
				n = next
			}
			l.head, l.tail = head, tail
			if head == nil {
				e.occ[lvl] &^= 1 << uint(slot)
			}
		}
	}
	if len(e.ov) > e.ovOff {
		kept := e.ov[:0]
		for _, n := range e.ov[e.ovOff:] {
			if n.dead {
				e.dead--
				e.release(n)
			} else {
				kept = append(kept, n)
			}
		}
		for i := len(kept); i < len(e.ov); i++ {
			e.ov[i] = nil
		}
		e.ov = kept
		e.ovOff = 0
	} else {
		e.ov = e.ov[:0]
		e.ovOff = 0
	}
}
