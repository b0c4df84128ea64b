package pmem

import (
	"pmnet/internal/sim"
)

// Queue models the PMNet device's SRAM log queues (§IV-B2, Figure 6): a
// bounded buffer that decouples the line-rate MAT pipeline from the slower
// PM media. Writes (log inserts) and reads (Retrans lookups) are queued and
// retired serially at the device's media latency and bandwidth.
//
// If accepting an entry would exceed the queue capacity, Try* returns false
// and the caller must fall back to the paper's bypass behaviour (forward
// without logging, send no PMNet-ACK).
type Queue struct {
	eng    *sim.Engine
	dev    *Device
	cap    int      // bytes of SRAM buffer
	used   int      // bytes currently queued (writes + reads)
	busyAt sim.Time // virtual time at which the media becomes free
	gen    uint64   // bumped by PowerFail; stale completions are dropped
	flight int      // entries currently in flight
	ops    []*pmOp  // recycled operation records (per-queue, single-threaded)

	stats QueueStats
}

// pmOp is one pooled in-flight queue operation, and the event record of its
// completion: it waits on its own wheel node, and its completion callback fn
// is bound once at allocation and reused for the record's whole life, so
// retiring an operation schedules no new closure. The write staging buffer
// travels with the record; read result buffers are NOT pooled — they are
// handed to the caller, which may alias them indefinitely (DecodeMessage
// keeps payload slices).
type pmOp struct {
	tm    sim.Timer
	q     *Queue
	write bool
	off   int
	n     int
	buf   []byte // write staging copy (reused; cap grows to the largest entry)
	gen   uint64
	done  func()       // write completion
	doneR func([]byte) // read completion
	fn    func()       // bound once: retires this record
}

func (q *Queue) getOp() *pmOp {
	if k := len(q.ops) - 1; k >= 0 {
		op := q.ops[k]
		q.ops = q.ops[:k]
		return op
	}
	op := &pmOp{q: q}
	op.fn = func() { op.q.complete(op) }
	return op
}

func (q *Queue) putOp(op *pmOp) {
	op.done = nil
	op.doneR = nil
	q.ops = append(q.ops, op)
}

// complete retires one queued operation on the virtual clock. The record is
// recycled before the caller's callback runs, so the callback may issue new
// queue operations that reuse it immediately.
func (q *Queue) complete(op *pmOp) {
	if op.gen != q.gen {
		q.putOp(op) // lost to a power failure
		return
	}
	q.used -= op.n
	q.flight--
	if op.write {
		if err := q.dev.WriteThrough(op.buf[:op.n], op.off); err != nil {
			panic("pmem: queued write out of range: " + err.Error())
		}
		done := op.done
		q.putOp(op)
		if done != nil {
			done()
		}
		return
	}
	buf := make([]byte, op.n)
	if err := q.dev.ReadAt(buf, op.off); err != nil {
		panic("pmem: queued read out of range: " + err.Error())
	}
	doneR := op.doneR
	q.putOp(op)
	if doneR != nil {
		doneR(buf)
	}
}

// QueueStats counts queue activity.
type QueueStats struct {
	WritesAccepted uint64
	WritesRejected uint64
	ReadsAccepted  uint64
	ReadsRejected  uint64
	MaxUsedBytes   int
	Dropped        uint64 // in-flight entries lost to power failure
}

// NewQueue creates a log queue of capBytes SRAM in front of dev, driven by
// eng. The paper provisions 4 KB (§V-A); Equation 2 shows ~1 kbit suffices
// at 10 Gbps.
func NewQueue(eng *sim.Engine, dev *Device, capBytes int) *Queue {
	if capBytes <= 0 {
		panic("pmem: non-positive queue capacity")
	}
	return &Queue{eng: eng, dev: dev, cap: capBytes}
}

// Stats returns a copy of the queue counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// UsedBytes returns the bytes currently occupying the queue.
func (q *Queue) UsedBytes() int { return q.used }

// Capacity returns the queue capacity in bytes.
func (q *Queue) Capacity() int { return q.cap }

// reserve claims the media channel for an operation. The DMA engine is
// pipelined: the channel is occupied only for the serialization time
// (bandwidth term), while the media latency overlaps across operations and
// is added to the completion time — so sustained throughput is bound by PM
// bandwidth, not by per-op latency (the property Equation 2 relies on to
// reach 100 Gbps with a kilobit-scale queue, §VII).
func (q *Queue) reserve(occupancy, latency sim.Time) sim.Time {
	start := q.busyAt
	if now := q.eng.Now(); start < now {
		start = now
	}
	q.busyAt = start + occupancy
	return q.busyAt + latency
}

func (q *Queue) serTime(n int) sim.Time {
	return sim.Time(float64(n) / q.dev.Config().BandwidthBps * 1e9)
}

// TryWrite queues a persistent write of data at off. When the write retires
// (data durable on media) done runs on the virtual clock. Returns false —
// and performs nothing — if the queue lacks space.
//
// A power failure between TryWrite and done discards the write: done never
// runs and the data never reaches the device.
func (q *Queue) TryWrite(off int, data []byte, done func()) bool {
	n := len(data)
	if q.used+n > q.cap {
		q.stats.WritesRejected++
		return false
	}
	q.used += n
	if q.used > q.stats.MaxUsedBytes {
		q.stats.MaxUsedBytes = q.used
	}
	q.stats.WritesAccepted++
	q.flight++
	op := q.getOp()
	op.write = true
	op.off = off
	op.n = n
	op.gen = q.gen
	op.done = done
	if cap(op.buf) < n {
		op.buf = make([]byte, n)
	}
	copy(op.buf[:n], data)
	doneAt := q.reserve(q.serTime(n), q.dev.Config().WriteLatency)
	op.tm.At(q.eng, doneAt, op.fn)
	return true
}

// TryRead queues a read of n bytes at off; done receives the data when the
// media access retires. Returns false if the queue lacks space.
func (q *Queue) TryRead(off, n int, done func(data []byte)) bool {
	if q.used+n > q.cap {
		q.stats.ReadsRejected++
		return false
	}
	q.used += n
	if q.used > q.stats.MaxUsedBytes {
		q.stats.MaxUsedBytes = q.used
	}
	q.stats.ReadsAccepted++
	q.flight++
	op := q.getOp()
	op.write = false
	op.off = off
	op.n = n
	op.gen = q.gen
	op.doneR = done
	doneAt := q.reserve(q.serTime(n), q.dev.Config().ReadLatency)
	op.tm.At(q.eng, doneAt, op.fn)
	return true
}

// InFlight returns the number of queued operations not yet retired.
func (q *Queue) InFlight() int { return q.flight }

// PowerFail models losing the SRAM queue contents: every in-flight operation
// is dropped whole — its completion callback never runs and none of its data
// reaches the device. What the device already holds is durable and stays.
func (q *Queue) PowerFail() {
	q.gen++
	q.stats.Dropped += uint64(q.flight)
	q.flight = 0
	q.used = 0
	q.busyAt = 0
}
