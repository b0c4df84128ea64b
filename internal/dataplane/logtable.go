package dataplane

import (
	"encoding/binary"
	"fmt"

	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
)

// The PM log is an open-addressed table of fixed-size slots indexed by
// HashVal modulo the slot count (§IV-B1: "The HashVal in the PMNet header
// serves as the index to the log entry"). A colliding or oversized request
// is bypassed — forwarded without logging or acknowledging — exactly as the
// paper specifies.
//
// Slot layout on the PM media:
//
//	+0  valid  (1 byte: 0 empty, 1 valid)
//	+1  reserved (1 byte)
//	+2  length (2 bytes, big endian: encoded message bytes)
//	+4  hash   (4 bytes, big endian: HashVal of the logged packet)
//	+8  dst    (8 bytes, big endian: destination server node id — persisted
//	            so TTL repair still works after a device restart)
//	+16 message (protocol.Message wire form)
const slotMetaSize = 16

// slotState tracks the SRAM mirror of a slot's lifecycle. The mirror is
// advisory (it avoids PM reads on the fast path); the PM contents are
// authoritative and RebuildIndex reconstructs the mirror from them.
type slotState uint8

const (
	slotEmpty slotState = iota
	slotWriting
	slotValid
)

type slotMeta struct {
	state            slotState
	hash             uint32
	invalidateOnDone bool // server-ACK raced the PM write
	dst              int  // destination server node (also persisted in the slot)
	resends          int  // TTL resends performed (SRAM; resets on restart)
}

// LogTable manages the PM-resident request log behind the device's log
// queues.
type LogTable struct {
	dev      *pmem.Device
	queue    *pmem.Queue
	slotSize int
	slots    []slotMeta
	live     int         // count of slotValid entries, kept incrementally
	scratch  []byte      // entry staging buffer (safe to reuse: TryWrite copies synchronously)
	ops      []*insertOp // recycled insert records (per-table)
}

// insertOp is one pooled Insert waiting for its PM write to retire. Its
// completion callback fn is bound once at allocation, so logging an update
// schedules no new closure. A record whose write never retires (the queue
// lost power) is not returned: the pool refills on a miss.
type insertOp struct {
	t         *LogTable
	idx       int
	stats     *LogStats
	onPersist func()
	fn        func() // bound once: retires this record
}

func (t *LogTable) getOp() *insertOp {
	if k := len(t.ops) - 1; k >= 0 {
		op := t.ops[k]
		t.ops = t.ops[:k]
		return op
	}
	op := &insertOp{t: t}
	op.fn = func() { op.t.persisted(op) }
	return op
}

func (t *LogTable) putOp(op *insertOp) {
	op.stats, op.onPersist = nil, nil
	t.ops = append(t.ops, op)
}

// persisted runs when an Insert's PM write has retired. The record is
// recycled before onPersist runs, so the callback may log again at once.
func (t *LogTable) persisted(op *insertOp) {
	idx, stats, onPersist := op.idx, op.stats, op.onPersist
	t.putOp(op)
	s := &t.slots[idx]
	if s.invalidateOnDone {
		// A server-ACK arrived while the write was in the queue: the
		// server has already processed the request, so reclaim
		// immediately and do not acknowledge.
		s.invalidateOnDone = false
		t.reclaim(idx, stats)
		return
	}
	// A re-logged entry (retransmission racing its own first PM
	// write) completes twice: count the empty/writing → valid
	// transition, not the callback.
	if s.state != slotValid {
		t.live++
	}
	s.state = slotValid
	if onPersist != nil {
		onPersist()
	}
}

// LogStats counts log activity.
type LogStats struct {
	Logged            uint64 // entries accepted and queued for persist
	BypassedCollision uint64 // hash collision with a live entry
	BypassedFull      uint64 // log queue had no room
	BypassedOversize  uint64 // message larger than a slot
	Invalidated       uint64 // entries reclaimed by server-ACKs
	RetransHits       uint64
	RetransMisses     uint64
}

// NewLogTable builds a table over dev with fixed slotSize bytes per entry,
// fed through queue.
func NewLogTable(dev *pmem.Device, queue *pmem.Queue, slotSize int) *LogTable {
	if slotSize <= slotMetaSize {
		panic("dataplane: slot size too small")
	}
	n := dev.Len() / slotSize
	if n == 0 {
		panic("dataplane: PM too small for a single slot")
	}
	return &LogTable{
		dev:      dev,
		queue:    queue,
		slotSize: slotSize,
		slots:    make([]slotMeta, n),
		scratch:  make([]byte, 0, slotSize),
	}
}

// LiveEntries returns the number of valid (un-reclaimed) entries. Maintained
// incrementally so the observability gauge can sample it per packet without
// an O(slots) scan (tables are sized for the bandwidth-delay product, easily
// tens of thousands of slots).
func (t *LogTable) LiveEntries() int { return t.live }

// scanLiveEntries recounts by scanning the mirror — the test oracle for the
// incremental count.
func (t *LogTable) scanLiveEntries() int {
	n := 0
	for _, s := range t.slots {
		if s.state == slotValid {
			n++
		}
	}
	return n
}

func (t *LogTable) slotFor(hash uint32) int { return int(hash % uint32(len(t.slots))) }

func (t *LogTable) slotOffset(i int) int { return i * t.slotSize }

// insertResult describes the outcome of an Insert attempt.
type insertResult uint8

const (
	insertAccepted insertResult = iota
	insertCollision
	insertQueueFull
	insertOversize
)

// Insert attempts to log msg headed for dst. onPersist runs when the entry
// is durable in the device PM — the moment PMNet may acknowledge the client.
func (t *LogTable) Insert(msg protocol.Message, dst int, stats *LogStats, onPersist func()) insertResult {
	wireLen := msg.WireSize()
	if wireLen+slotMetaSize > t.slotSize {
		stats.BypassedOversize++
		return insertOversize
	}
	idx := t.slotFor(msg.Hdr.HashVal)
	s := &t.slots[idx]
	if s.state != slotEmpty && s.hash != msg.Hdr.HashVal {
		stats.BypassedCollision++
		return insertCollision
	}
	entry := append(t.scratch[:0], 1, 0)
	entry = binary.BigEndian.AppendUint16(entry, uint16(wireLen))
	entry = binary.BigEndian.AppendUint32(entry, msg.Hdr.HashVal)
	entry = binary.BigEndian.AppendUint64(entry, uint64(dst))
	entry = msg.Hdr.Encode(entry)
	entry = append(entry, msg.Payload...)
	t.scratch = entry
	op := t.getOp()
	op.idx, op.stats, op.onPersist = idx, stats, onPersist
	if !t.queue.TryWrite(t.slotOffset(idx), entry, op.fn) {
		t.putOp(op)
		stats.BypassedFull++
		return insertQueueFull
	}
	if s.state == slotValid {
		// Re-logging over a still-live entry with the same hash (client
		// retransmission): it leaves the valid set until the rewrite lands.
		t.live--
	}
	s.state = slotWriting
	s.hash = msg.Hdr.HashVal
	s.dst = dst
	s.resends = 0
	stats.Logged++
	return insertAccepted
}

// reclaim writes the tombstone through (written and persisted) and clears
// the mirror. Invalidation uses a dedicated single-byte PM write that does
// not contend for log-queue space (the paper's separate read/write log
// queues; a 1-byte tombstone is far below the queue's granularity).
func (t *LogTable) reclaim(idx int, stats *LogStats) {
	off := t.slotOffset(idx)
	if err := t.dev.WriteThrough([]byte{0}, off); err != nil {
		panic("dataplane: tombstone write failed: " + err.Error())
	}
	if t.slots[idx].state == slotValid {
		t.live--
	}
	t.slots[idx] = slotMeta{}
	stats.Invalidated++
}

// Invalidate processes a server-ACK for the request identified by hash.
// Returns true if a matching live (or in-flight) entry was found.
func (t *LogTable) Invalidate(hash uint32, stats *LogStats) bool {
	idx := t.slotFor(hash)
	s := &t.slots[idx]
	switch {
	case s.state == slotValid && s.hash == hash:
		t.reclaim(idx, stats)
		return true
	case s.state == slotWriting && s.hash == hash:
		s.invalidateOnDone = true
		return true
	default:
		return false
	}
}

// Lookup schedules a PM read of the entry for hash; done receives the
// decoded logged message. It returns false — without scheduling — when the
// entry is absent or the read queue is full.
func (t *LogTable) Lookup(hash uint32, stats *LogStats, done func(protocol.Message)) bool {
	idx := t.slotFor(hash)
	s := &t.slots[idx]
	if s.state != slotValid || s.hash != hash {
		stats.RetransMisses++
		return false
	}
	ok := t.queue.TryRead(t.slotOffset(idx), t.slotSize, func(raw []byte) {
		msg, err := decodeSlot(raw)
		if err != nil {
			// The entry was reclaimed (server-ACK tombstone) while this
			// read sat in the PM queue: the request is already processed,
			// so there is nothing to retransmit.
			return
		}
		done(msg)
	})
	if !ok {
		stats.RetransMisses++
		return false
	}
	stats.RetransHits++
	return true
}

func decodeSlot(raw []byte) (protocol.Message, error) {
	msg, _, err := decodeSlotFull(raw)
	return msg, err
}

func decodeSlotFull(raw []byte) (protocol.Message, int, error) {
	if len(raw) < slotMetaSize || raw[0] != 1 {
		return protocol.Message{}, 0, fmt.Errorf("empty slot")
	}
	n := int(binary.BigEndian.Uint16(raw[2:]))
	if slotMetaSize+n > len(raw) {
		return protocol.Message{}, 0, fmt.Errorf("bad length %d", n)
	}
	dst := int(binary.BigEndian.Uint64(raw[8:]))
	msg, err := protocol.DecodeMessage(raw[slotMetaSize : slotMetaSize+n])
	return msg, dst, err
}

// ValidSlotsFor returns the indices, in slot order, of the live entries
// destined for one server — the recovery replay set when several servers
// share the device.
func (t *LogTable) ValidSlotsFor(dst int) []int {
	var out []int
	for i, s := range t.slots {
		if s.state == slotValid && s.dst == dst {
			out = append(out, i)
		}
	}
	return out
}

// ReadSlot schedules a PM read of slot idx (which must be valid), invoking
// done with the decoded message and ok=true — or ok=false when the entry was
// reclaimed while the read sat in the PM queue. Used by the recovery and
// TTL-repair paths; returns false without scheduling when the slot is
// already empty or the read queue is full (caller retries later).
func (t *LogTable) ReadSlot(idx int, done func(msg protocol.Message, ok bool)) bool {
	if t.slots[idx].state != slotValid {
		return false
	}
	return t.queue.TryRead(t.slotOffset(idx), t.slotSize, func(raw []byte) {
		msg, err := decodeSlot(raw)
		done(msg, err == nil)
	})
}

// RebuildIndex reconstructs the SRAM mirror by scanning the persistent
// image — what a battery-backed PMNet device does when it restarts after
// its own intermittent failure. In-flight queue writes must already have
// been dropped (pmem.Queue.PowerFail).
func (t *LogTable) RebuildIndex() {
	buf := make([]byte, t.slotSize)
	t.live = 0
	for i := range t.slots {
		t.slots[i] = slotMeta{}
		if err := t.dev.ReadAt(buf, t.slotOffset(i)); err != nil {
			panic("dataplane: index scan failed: " + err.Error())
		}
		if buf[0] != 1 {
			continue
		}
		msg, dst, err := decodeSlotFull(buf)
		if err != nil {
			continue // torn entry: treat as empty
		}
		t.slots[i] = slotMeta{state: slotValid, hash: msg.Hdr.HashVal, dst: dst}
		t.live++
	}
}
