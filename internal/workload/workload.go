// Package workload defines the applications of the paper's evaluation
// (§VI-A2), each exactly once: a YCSB-like key-value generator with
// configurable update ratio and zipfian popularity, the Twitter (Retwis)
// mix, and a TPCC subset whose new-order guards its stock update with a
// server-side lock (§III-C). A multi-request application is a Mix — the
// request steps of one user action — and both loops are players of it: the
// closed loop through Player (one fixed user, one request outstanding, the
// synchronous-RPC model) under Driver, the open loop through
// internal/openloop. Stepper is the per-request machine the two share.
package workload

import (
	"strconv"

	"pmnet/internal/client"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// Op is one request to issue, with the storage its Req.Args point into: argv
// is the argument array and kb holds the keys and ids a generator formats, so
// drawing a request allocates nothing. (A request with more arguments or
// longer keys than fit spills to the heap through append; nothing is cut.)
//
// The storage belongs to the Op's place in memory — the element of an ops
// slice, a driver's one current op — not to its value: a copy of an Op, by
// assignment or when append moves a slice, still points at the original's
// storage and never at its own. An Op is therefore valid until the place it
// was drawn into is drawn into again: an Op from Generator.Next until the
// generator's next Next (a Player refills its steps in place; one from
// (*YCSB).Next is backed by a fresh Op and stays), an element of the slice a
// Mix appended to until that element is reused. Whoever needs a request for
// longer copies the argument bytes (the client's Encode does).
type Op struct {
	Req protocol.Request
	// Update selects update-req framing (persistent logging) vs bypass.
	Update bool
	// Retry requests re-issue on StatusLocked (lock acquisition).
	Retry bool

	// Sized for the mixes: LRANGE has four arguments, and the longest bytes
	// one op formats — a TPCC order-line key — stay under 40 for a million
	// users.
	argv [4][]byte
	kb   [64]byte
}

// fill makes op the request (code, args...) with its arguments in op's own
// array. The args themselves may point into op.kb or at bytes that outlive
// the op (a mix's fixed keys and values).
func (op *Op) fill(code protocol.Op, update bool, args ...[]byte) {
	op.Req = protocol.Request{Op: code, Args: append(op.argv[:0], args...)}
	op.Update, op.Retry = update, false
}

// appendID appends "<uid>-<n>": what uid's n-th creation — a post, an order —
// is called in every mix, after the mix's own prefix.
func appendID(b []byte, uid int, n uint64) []byte {
	b = strconv.AppendInt(b, int64(uid), 10)
	return strconv.AppendUint(append(b, '-'), n, 10)
}

// push appends a zero Op to ops for the caller to fill in place, and returns
// the extended slice with the new element.
func push(ops []Op) ([]Op, *Op) {
	ops = append(ops, Op{})
	return ops, &ops[len(ops)-1]
}

// Generator produces the request stream for one client. The Op it returns is
// valid until its next Next (see Op).
type Generator interface {
	Next() Op
}

// GeneratorFunc adapts a function to Generator.
type GeneratorFunc func() Op

// Next implements Generator.
func (f GeneratorFunc) Next() Op { return f() }

// Mix is an application defined as user actions: Action appends to ops the
// request steps one user issues for a single site interaction (post a tweet,
// read a timeline, place an order) and returns the extended slice. Steps are
// issued in order, step k+1 only after step k completes, so a lock-bracketed
// transaction keeps its ordering. An implementation draws randomness only
// from r and holds no state a call changes, so one instance serves every
// driver of a run, whichever shard worker runs it. uid names the acting user
// and seq numbers what the action creates (a post, an order); the caller
// keeps (uid, seq) unique.
type Mix interface {
	Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op
}

// counted is a Mix as Player sees it: ids is the player's own id counter,
// which an action advances only when it creates something and otherwise
// reads as the last id created. Action is steps on a counter of seq-1.
type counted interface {
	steps(r *sim.Rand, uid int, ids *uint64, ops []Op) []Op
}

// Player is the closed-loop form of a Mix: one fixed user with a private id
// counter, whose actions come out one request at a time so Driver keeps the
// synchronous model across a multi-request action.
type Player struct {
	mix  counted
	rand *sim.Rand
	uid  int
	ids  uint64
	ops  []Op // steps of the current action; ops[idx:] not yet handed out
	idx  int
}

// Next implements Generator.
func (p *Player) Next() Op {
	if p.idx == len(p.ops) {
		p.ops, p.idx = p.mix.steps(p.rand, p.uid, &p.ids, p.ops[:0]), 0
	}
	p.idx++
	return p.ops[p.idx-1]
}

// Lock-conflict policy of every Stepper: a Retry op answered StatusLocked is
// sent again after RetryDelay, at most MaxLockRetries times — the safety
// valve against a peer that died holding a lock.
const (
	RetryDelay     = 5 * sim.Microsecond
	MaxLockRetries = 2000
)

// StepStats counts what a Stepper sent. Lock primitives travel as bypass
// and count under both LockOps and Bypasses; a retry counts again.
type StepStats struct {
	Updates     uint64
	Bypasses    uint64
	LockOps     uint64
	LockRetries uint64
}

// Merge folds other into s.
func (s *StepStats) Merge(other StepStats) {
	s.Updates += other.Updates
	s.Bypasses += other.Bypasses
	s.LockOps += other.LockOps
	s.LockRetries += other.LockRetries
}

// Stepper takes one request from issue to final result, the same way for
// both loops: classify it (lock primitive, update, bypass), count it, send
// it on the session, send a Retry op again while the server answers
// StatusLocked, and hand the owner the result that ends it. One request at a
// time; the callbacks are bound once in Init, so a step allocates nothing
// beyond what the client does.
type Stepper struct {
	eng   *sim.Engine
	sess  *client.Session
	stats *StepStats
	done  func(r client.Result, ok bool)

	op       *Op
	retries  int // lock-conflict retries of op so far
	onResult func(client.Result)
	reissue  func()
}

// Init binds the stepper, at its final address, to a session, the counters
// it adds to and the owner's completion callback. done receives the last
// result of each issued op; ok is false when the request failed or its lock
// retries ran out.
func (s *Stepper) Init(eng *sim.Engine, sess *client.Session, stats *StepStats, done func(r client.Result, ok bool)) {
	s.eng, s.sess, s.stats, s.done = eng, sess, stats, done
	s.onResult, s.reissue = s.handle, s.send
}

// Issue sends *op, which must stay unchanged until done is called.
func (s *Stepper) Issue(op *Op) {
	s.op, s.retries = op, 0
	s.send()
}

func (s *Stepper) send() {
	switch {
	case s.op.Req.Op == protocol.OpLockAcquire || s.op.Req.Op == protocol.OpLockRelease:
		s.stats.LockOps++
		s.stats.Bypasses++
		s.sess.Bypass(s.op.Req, s.onResult)
	case s.op.Update:
		s.stats.Updates++
		s.sess.SendUpdate(s.op.Req, s.onResult)
	default:
		s.stats.Bypasses++
		s.sess.Bypass(s.op.Req, s.onResult)
	}
}

func (s *Stepper) handle(r client.Result) {
	if r.Err == nil && s.op.Retry && r.Status == protocol.StatusLocked {
		if s.retries >= MaxLockRetries {
			s.done(r, false)
			return
		}
		s.retries++
		s.stats.LockRetries++
		s.eng.After(RetryDelay, s.reissue)
		return
	}
	s.done(r, r.Err == nil)
}

// DriverStats reports a finished driver run.
type DriverStats struct {
	StepStats
	Completed uint64
	Failed    uint64
}

// Merge folds other into s.
func (s *DriverStats) Merge(other DriverStats) {
	s.StepStats.Merge(other.StepStats)
	s.Completed += other.Completed
	s.Failed += other.Failed
}

// Driver plays a generator against a session in a closed loop: one
// outstanding request, the next issued from the completion callback — the
// synchronous RPC model of §II-A.
type Driver struct {
	Sess *client.Session
	Gen  Generator
	// Record is invoked for every completed request with its latency.
	Record func(lat sim.Time, op Op)

	stats     DriverStats
	lockDepth int

	// Loop state. Everything the completion path needs lives here and the
	// stepper's callbacks are bound once in Run, so a step allocates nothing.
	n    uint64
	done func(DriverStats)
	ycsb *YCSB // Gen, when it can draw into op's own storage
	op   Op    // the request in flight; refilled in place when ycsb != nil
	step Stepper
}

// Run issues n requests (completions counted; lock retries re-issue the
// same logical request) and invokes done when finished. A driver whose
// budget expires inside a critical section keeps going until the lock is
// released — a client never disconnects holding a server-side lock.
func (d *Driver) Run(eng *sim.Engine, n uint64, done func(DriverStats)) {
	d.n, d.done = n, done
	d.ycsb, _ = d.Gen.(*YCSB)
	d.step.Init(eng, d.Sess, &d.stats.StepStats, d.complete)
	d.next()
}

// next draws the following request and issues it, or finishes the run.
func (d *Driver) next() {
	if d.stats.Completed >= d.n && d.lockDepth == 0 {
		if d.done != nil {
			d.done(d.stats)
		}
		return
	}
	if d.ycsb != nil {
		d.ycsb.NextInto(&d.op)
	} else {
		d.op = d.Gen.Next()
	}
	d.step.Issue(&d.op)
}

// complete ends the current op: count it, track the lock bracket, record a
// success, and move on.
func (d *Driver) complete(r client.Result, ok bool) {
	if ok {
		switch d.op.Req.Op {
		case protocol.OpLockAcquire:
			if r.Status == protocol.StatusOK {
				d.lockDepth++
			}
		case protocol.OpLockRelease:
			if d.lockDepth > 0 {
				d.lockDepth--
			}
		}
		if d.Record != nil {
			d.Record(r.Latency, d.op)
		}
	} else {
		d.stats.Failed++
	}
	d.stats.Completed++
	d.next()
}

// Stats returns the driver counters so far.
func (d *Driver) Stats() DriverStats { return d.stats }
