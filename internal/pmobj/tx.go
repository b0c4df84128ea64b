package pmobj

import (
	"encoding/binary"
	"fmt"
)

// Tx is a redo-log transaction: writes (and allocator operations) buffer in
// volatile memory and become durable atomically at Commit. A crash before
// Commit leaves the arena untouched; a crash during Commit is repaired by
// redo replay at the next Open/Reopen.
//
// Reads inside a transaction that must observe the transaction's own writes
// go through Tx.ReadU64 (overlay semantics); plain Arena reads see the
// pre-transaction state.
//
// An arena has exactly one Tx — nesting panics, so there is never a second —
// and Begin resets it in place: every *Tx an arena hands out is the same
// object, and a handle kept past Commit or Abort names whichever transaction
// is open next.
type Tx struct {
	a *Arena
	// Buffered stores, in program order: op i writes buf[start:start+n] at
	// off. Ops hold indexes into buf, not sub-slices, so buf may grow. buf is
	// the redo record Commit writes from redoCount on: the 8-byte count and
	// total header, then each store's offset (8), length (4) and data.
	ops     []txOp
	buf     []byte
	bump    uint64           // pending bump pointer
	heads   [nClasses]uint64 // pending free-list head of each class in headSet
	headSet uint32           // bit c: heads[c] overrides the arena's head
	allocs  int
	frees   int
	open    bool
}

type txOp struct {
	off      uint64
	start, n int
}

// Begin starts a transaction. Nested transactions are a programming error
// and panic.
func (a *Arena) Begin() *Tx {
	tx := &a.tx
	if tx.open {
		panic(ErrTxActive)
	}
	tx.ops, tx.buf = tx.ops[:0], append(tx.buf[:0], make([]byte, redoOps-redoCount)...)
	tx.bump = a.readU64(offBump)
	tx.headSet = 0
	tx.allocs, tx.frees = 0, 0
	tx.open = true
	return tx
}

// Update runs fn inside a transaction and commits; any error aborts.
func (a *Arena) Update(fn func(tx *Tx) error) error {
	tx := a.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// WriteU64 buffers a u64 store.
func (tx *Tx) WriteU64(off, v uint64) {
	tx.record(off, 8)
	tx.buf = binary.BigEndian.AppendUint64(tx.buf, v)
}

// WriteBytes buffers a byte-range store.
func (tx *Tx) WriteBytes(off uint64, data []byte) {
	tx.record(off, len(data))
	tx.buf = append(tx.buf, data...)
}

// record notes a store at off of the n bytes its caller appends to buf next,
// appending the store's redo offset and length first.
func (tx *Tx) record(off uint64, n int) {
	if !tx.open {
		panic("pmobj: write on closed tx")
	}
	tx.buf = binary.BigEndian.AppendUint64(tx.buf, off)
	tx.buf = binary.BigEndian.AppendUint32(tx.buf, uint32(n))
	tx.ops = append(tx.ops, txOp{off: off, start: len(tx.buf), n: n})
}

// data returns the bytes op stores.
func (tx *Tx) data(op txOp) []byte { return tx.buf[op.start : op.start+op.n] }

// ReadU64 reads a u64 with read-your-writes semantics: the latest buffered
// store to off wins, falling back to the committed state.
func (tx *Tx) ReadU64(off uint64) uint64 {
	for i := len(tx.ops) - 1; i >= 0; i-- {
		op := tx.ops[i]
		if off >= op.off && off+8 <= op.off+uint64(op.n) {
			return binary.BigEndian.Uint64(tx.buf[op.start+int(off-op.off):])
		}
	}
	return tx.a.readU64(off)
}

// overlaps reports whether a buffered store touches [off, off+n).
func (tx *Tx) overlaps(off, n uint64) bool {
	for _, op := range tx.ops {
		if op.off < off+n && off < op.off+uint64(op.n) {
			return true
		}
	}
	return false
}

// SetRoot stores the application root offset.
func (tx *Tx) SetRoot(off uint64) { tx.WriteU64(offRoot, off) }

// headOf reads a free-list head with the transaction overlay.
func (tx *Tx) headOf(c int) uint64 {
	if tx.headSet&(1<<c) != 0 {
		return tx.heads[c]
	}
	return tx.a.readU64(uint64(offFreeBase + 8*c))
}

func (tx *Tx) setHead(c int, head uint64) {
	tx.heads[c] = head
	tx.headSet |= 1 << c
}

// Alloc reserves a block of at least n bytes and returns its offset. The
// allocation becomes durable only if the transaction commits.
func (tx *Tx) Alloc(n int) (uint64, error) {
	if !tx.open {
		panic("pmobj: alloc on closed tx")
	}
	c, err := classFor(n)
	if err != nil {
		return 0, err
	}
	if head := tx.headOf(c); head != 0 {
		// Pop the free list; the next pointer lives in the block's first 8
		// bytes and may have been written by this very transaction (free
		// then alloc), so use the overlay read.
		tx.setHead(c, tx.ReadU64(head))
		tx.allocs++
		return head, nil
	}
	size := uint64(classSize(c))
	off := tx.bump
	if off+size > uint64(tx.a.dev.Len()) {
		return 0, fmt.Errorf("%w: need %d bytes past %d (device %d)",
			ErrOutOfMemory, size, off, tx.a.dev.Len())
	}
	tx.bump += size
	tx.allocs++
	return off, nil
}

// Free returns a block of (original request size) n at off to its size
// class's free list.
func (tx *Tx) Free(off uint64, n int) {
	if !tx.open {
		panic("pmobj: free on closed tx")
	}
	c, err := classFor(n)
	if err != nil {
		panic("pmobj: free of oversized block")
	}
	tx.WriteU64(off, tx.headOf(c))
	tx.setHead(c, off)
	tx.frees++
}

// Abort discards the transaction: nothing reaches the device.
func (tx *Tx) Abort() { tx.open = false }

// Commit makes every buffered write (and the allocator state) durable
// atomically:
//
//  1. Write the redo record through (one group: the header and each op's
//     offset, length and data, persisted together).
//  2. Write the committed flag through (the linearization point).
//  3. Write each op through to its home location.
//  4. Clear the flag.
//
// A crash before (2) discards the transaction; after (2), Open/Reopen
// replays it. Every write is durable before the next one is made.
func (tx *Tx) Commit() {
	if !tx.open {
		panic("pmobj: double commit")
	}
	a := tx.a
	// Fold allocator state into the op list, size classes in index order: op
	// order fixes the redo-log byte layout and the stage-3 apply order, both
	// of which a mid-commit crash exposes.
	tx.WriteU64(offBump, tx.bump)
	for c := 0; c < nClasses; c++ {
		if tx.headSet&(1<<c) != 0 {
			tx.WriteU64(uint64(offFreeBase+8*c), tx.heads[c])
		}
	}

	total := len(tx.buf) - (redoOps - redoCount)
	if redoOps+total > a.redoBytes {
		panic(fmt.Sprintf("pmobj: transaction too large for redo region (%d > %d)",
			total, a.redoBytes-redoOps))
	}
	// (1) the redo record, counted as the 1 + 2n device writes it is made
	// of: the header, and per op its offset/length and its data.
	binary.BigEndian.PutUint32(tx.buf[0:], uint32(len(tx.ops)))
	binary.BigEndian.PutUint32(tx.buf[4:], uint32(total))
	a.writeThrough(tx.buf, a.redoBase()+redoCount, 1+2*len(tx.ops))
	if a.CrashHook != nil && a.CrashHook(1) {
		tx.open = false
		return
	}
	// (2) committed flag: linearization point.
	a.setRedoFlag(magic)
	if a.CrashHook != nil && a.CrashHook(2) {
		tx.open = false
		return
	}
	// (3) apply home-location writes.
	for i, op := range tx.ops {
		a.writeThrough(tx.data(op), op.off, 1)
		if i == len(tx.ops)/2 && a.CrashHook != nil && a.CrashHook(3) {
			tx.open = false
			return
		}
	}
	// (4) clear the flag.
	a.setRedoFlag(0)

	a.stats.Commits++
	a.stats.Allocs += uint64(tx.allocs)
	a.stats.Frees += uint64(tx.frees)
	tx.open = false
}
