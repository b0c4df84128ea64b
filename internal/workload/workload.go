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

// Op is one request to issue.
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
	var issue func()
	issue = func() {
		if d.stats.Completed >= n && d.lockDepth == 0 {
			if done != nil {
				done(d.stats)
			}
			return
		}
		op := d.Gen.Next()
		d.play(op, 0, issue)
	}
	issue()
}

// play issues one op, retrying lock conflicts, then continues with next.
func (d *Driver) play(op Op, retries int, next func()) {
	handle := func(r client.Result) {
		if r.Err != nil {
			d.stats.Failed++
			d.stats.Completed++
			next()
			return
		}
		if op.Retry && r.Status == protocol.StatusLocked {
			if retries >= d.MaxLockRetries {
				d.stats.Failed++
				d.stats.Completed++
				next()
				return
			}
			d.stats.LockRetries++
			d.eng.After(d.RetryDelay, func() { d.play(op, retries+1, next) })
			return
		}
		switch op.Req.Op {
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
			d.Record(r.Latency, op)
		}
		d.stats.Completed++
		next()
	}
	switch {
	case op.Req.Op == protocol.OpLockAcquire || op.Req.Op == protocol.OpLockRelease:
		d.stats.LockOps++
		d.stats.Bypasses++
		d.Sess.Bypass(op.Req, handle)
	case op.Update:
		d.stats.Updates++
		d.Sess.SendUpdate(op.Req, handle)
	default:
		d.stats.Bypasses++
		d.Sess.Bypass(op.Req, handle)
	}
}

// Stats returns the driver counters so far.
func (d *Driver) Stats() DriverStats { return d.stats }
