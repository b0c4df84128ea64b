// Package workload implements the request generators of the paper's
// evaluation (§VI-A2): a YCSB-like key-value driver with configurable
// update ratio and zipfian popularity, the Twitter (Retwis) workload, and a
// TPCC subset whose transactions guard stock updates with server-side locks
// (§III-C) — plus the closed-loop driver that plays any generator against a
// client session with synchronous-RPC semantics.
package workload

import (
	"pmnet/internal/client"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// Op is one request to issue. An Op returned by Generator.Next is the
// caller's to keep; one filled by (*YCSB).NextInto is scratch, valid until
// the next draw into it.
type Op struct {
	Req protocol.Request
	// Update selects update-req framing (persistent logging) vs bypass.
	Update bool
	// Retry requests re-issue on StatusLocked (lock acquisition).
	Retry bool
}

// Generator produces the request stream for one client.
type Generator interface {
	Next() Op
}

// GeneratorFunc adapts a function to Generator.
type GeneratorFunc func() Op

// Next implements Generator.
func (f GeneratorFunc) Next() Op { return f() }

// DriverStats reports a finished driver run.
type DriverStats struct {
	Completed   uint64
	Updates     uint64
	Bypasses    uint64
	LockOps     uint64
	LockRetries uint64
	Failed      uint64
}

// Merge folds other into s.
func (s *DriverStats) Merge(other DriverStats) {
	s.Completed += other.Completed
	s.Updates += other.Updates
	s.Bypasses += other.Bypasses
	s.LockOps += other.LockOps
	s.LockRetries += other.LockRetries
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
	// RetryDelay backs off lock-acquire retries (0 = 5 µs).
	RetryDelay sim.Time
	// MaxLockRetries caps retries per lock acquisition before giving up
	// (0 = 2000); the safety valve against a peer that died holding a lock.
	MaxLockRetries int

	eng       *sim.Engine
	stats     DriverStats
	lockDepth int

	// Loop state. Everything the completion path needs lives here and the
	// two callbacks are bound once in Run, so a step allocates nothing.
	n        uint64
	done     func(DriverStats)
	ycsb     *YCSB // Gen, when it can draw into op's own storage
	op       Op    // the request in flight; refilled in place when ycsb != nil
	retries  int   // lock-conflict retries of op so far
	onResult func(client.Result)
	reissue  func()
}

// Run issues n requests (completions counted; lock retries re-issue the
// same logical request) and invokes done when finished. A driver whose
// budget expires inside a critical section keeps going until the lock is
// released — a client never disconnects holding a server-side lock.
func (d *Driver) Run(eng *sim.Engine, n uint64, done func(DriverStats)) {
	d.eng = eng
	if d.RetryDelay <= 0 {
		d.RetryDelay = 5 * sim.Microsecond
	}
	if d.MaxLockRetries <= 0 {
		d.MaxLockRetries = 2000
	}
	d.n, d.done = n, done
	d.ycsb, _ = d.Gen.(*YCSB)
	d.onResult, d.reissue = d.handle, d.issue
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
	d.retries = 0
	d.issue()
}

// issue sends the current op; a lock conflict sends it again.
func (d *Driver) issue() {
	switch {
	case d.op.Req.Op == protocol.OpLockAcquire || d.op.Req.Op == protocol.OpLockRelease:
		d.stats.LockOps++
		d.stats.Bypasses++
		d.Sess.Bypass(d.op.Req, d.onResult)
	case d.op.Update:
		d.stats.Updates++
		d.Sess.SendUpdate(d.op.Req, d.onResult)
	default:
		d.stats.Bypasses++
		d.Sess.Bypass(d.op.Req, d.onResult)
	}
}

// handle completes the current op: retry a lock conflict, otherwise record
// it and move on.
func (d *Driver) handle(r client.Result) {
	if r.Err != nil {
		d.stats.Failed++
		d.stats.Completed++
		d.next()
		return
	}
	if d.op.Retry && r.Status == protocol.StatusLocked {
		if d.retries >= d.MaxLockRetries {
			d.stats.Failed++
			d.stats.Completed++
			d.next()
			return
		}
		d.stats.LockRetries++
		d.retries++
		d.eng.After(d.RetryDelay, d.reissue)
		return
	}
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
	d.stats.Completed++
	d.next()
}

// Stats returns the driver counters so far.
func (d *Driver) Stats() DriverStats { return d.stats }
