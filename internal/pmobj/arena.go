// Package pmobj provides a PMDK-style persistent object arena on top of a
// simulated PM device: offset-based "persistent pointers", a size-class
// allocator, and redo-log transactions that make multi-word updates
// crash-atomic. The five PMDK workload engines (internal/kv) and the
// Redis-like store (internal/rediskv) build their persistent data
// structures on this arena, mirroring how the paper's server workloads use
// libpmemobj.
package pmobj

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pmnet/internal/pmem"
)

// Arena layout:
//
//	+0    magic (8)
//	+8    bump pointer (8)          — first never-allocated offset
//	+16   root offset (8)           — application root object
//	+24   free-list heads (8 × nClasses)
//	+H    redo log region (redoBytes)
//	+H+R  data area
const (
	magic       = 0x504D4F424A313744 // "PMOBJ17D"
	offMagic    = 0
	offBump     = 8
	offRoot     = 16
	offFreeBase = 24
)

// Size classes: 16 B .. 64 KiB, powers of two.
const (
	minClassShift = 4
	maxClassShift = 16
	nClasses      = maxClassShift - minClassShift + 1
)

const headerSize = offFreeBase + 8*nClasses

// Errors.
var (
	ErrOutOfMemory = errors.New("pmobj: arena out of memory")
	ErrTooLarge    = errors.New("pmobj: allocation exceeds max size class")
	ErrTxActive    = errors.New("pmobj: a transaction is already active")
)

// classFor returns the size class index for an allocation of n bytes.
func classFor(n int) (int, error) {
	if n <= 0 {
		n = 1
	}
	for c := 0; c < nClasses; c++ {
		if n <= 1<<(minClassShift+c) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
}

func classSize(c int) int { return 1 << (minClassShift + c) }

// Arena is a persistent heap. It is single-threaded on the virtual clock.
type Arena struct {
	dev       *pmem.Device
	redoBytes int
	dataBase  int
	tx        Tx // the arena's one transaction, reset in place by Begin

	// CrashHook, when set, is invoked between commit stages (1: redo
	// written, 2: flag set, 3: partially applied). Returning true abandons
	// the commit at that point, simulating a power failure mid-commit.
	// Testing only.
	CrashHook func(stage int) bool

	stats ArenaStats
}

// ArenaStats counts arena activity.
type ArenaStats struct {
	Allocs     uint64
	Frees      uint64
	Commits    uint64
	Recoveries uint64 // redo replays performed at Open
	BytesAlloc uint64
}

// Open initializes (or recovers) an arena on dev. redoBytes sizes the redo
// region (0 = 64 KiB). If the device already holds an arena, Open replays
// any committed-but-unapplied redo log; otherwise it formats the device.
func Open(dev *pmem.Device, redoBytes int) (*Arena, error) {
	if redoBytes <= 0 {
		redoBytes = 64 << 10
	}
	a := &Arena{dev: dev, redoBytes: redoBytes, dataBase: headerSize + redoBytes}
	a.tx.a = a
	if dev.Len() < a.dataBase+1024 {
		return nil, fmt.Errorf("pmobj: device too small (%d bytes)", dev.Len())
	}
	if a.readU64(offMagic) == magic {
		if err := a.recover(); err != nil {
			return nil, err
		}
		return a, nil
	}
	// Format: the header words and the empty redo log's committed flag, the
	// 17 words Open always wrote, in one write-through group.
	var hdr [headerSize + 8]byte
	binary.BigEndian.PutUint64(hdr[offMagic:], magic)
	binary.BigEndian.PutUint64(hdr[offBump:], uint64(a.dataBase))
	a.writeThrough(hdr[:], 0, len(hdr)/8)
	return a, nil
}

// Device returns the underlying PM device.
func (a *Arena) Device() *pmem.Device { return a.dev }

// Stats returns a copy of the arena counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// low-level helpers -------------------------------------------------------

func (a *Arena) readU64(off uint64) uint64 {
	v, err := a.dev.ReadU64(int(off))
	if err != nil {
		panic("pmobj: read: " + err.Error())
	}
	return v
}

// writeThrough writes p at off durably (pmem.Device.WriteThroughGroup), as
// every write of the arena is. pieces is how many device writes p stands
// for.
func (a *Arena) writeThrough(p []byte, off uint64, pieces int) {
	if err := a.dev.WriteThroughGroup(p, int(off), pieces); err != nil {
		panic("pmobj: write: " + err.Error())
	}
}

// ReadU64 reads a big-endian u64 at off (committed/volatile view).
func (a *Arena) ReadU64(off uint64) uint64 { return a.readU64(off) }

// TxReadU64 reads a u64 with read-your-writes semantics when a transaction
// is active, falling back to the committed view. Data-structure engines use
// this for all metadata reads so that multi-step mutations (e.g. a B-tree
// split followed by a descent into the split child) observe their own
// in-flight writes.
func (a *Arena) TxReadU64(off uint64) uint64 {
	if a.tx.open {
		return a.tx.ReadU64(off)
	}
	return a.readU64(off)
}

// TxReadU64s fills dst with the words at off, off+8, …, each as TxReadU64
// reads it and counted as one device read: in one device call when no
// buffered store of the open transaction overlaps the range, word by word
// through the overlay when one does.
func (a *Arena) TxReadU64s(off uint64, dst []uint64) {
	if a.tx.open && a.tx.overlaps(off, 8*uint64(len(dst))) {
		for i := range dst {
			dst[i] = a.tx.ReadU64(off + 8*uint64(i))
		}
		return
	}
	if err := a.dev.ReadU64s(dst, int(off)); err != nil {
		panic("pmobj: read: " + err.Error())
	}
}

// ReadBytes reads n bytes at off into a slice the caller owns.
func (a *Arena) ReadBytes(off uint64, n int) []byte {
	b := make([]byte, n)
	if err := a.dev.ReadAt(b, int(off)); err != nil {
		panic("pmobj: read bytes: " + err.Error())
	}
	return b
}

// View reads n bytes at off in place: one device read, counted like
// ReadBytes, and no copy. The bytes are the device's own and change under
// the next write to the arena (a Commit; a transaction's buffered stores do
// not touch the device), so a caller compares or copies them and never keeps
// them.
func (a *Arena) View(off uint64, n int) []byte {
	b, err := a.dev.View(int(off), n)
	if err != nil {
		panic("pmobj: view: " + err.Error())
	}
	return b
}

// Root returns the application root offset (0 when unset).
func (a *Arena) Root() uint64 { return a.readU64(offRoot) }

// redo log ----------------------------------------------------------------

// Redo record layout in the log region (base = headerSize):
//
//	+0  committed flag (8): magic when a commit is in flight
//	+8  op count (4) | total bytes (4)
//	+16 ops: each off(8) len(4) data...
const (
	redoFlag  = 0
	redoCount = 8
	redoOps   = 16
)

func (a *Arena) redoBase() uint64 { return uint64(headerSize) }

// setRedoFlag writes the committed flag through.
func (a *Arena) setRedoFlag(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	a.writeThrough(b[:], a.redoBase()+redoFlag, 1)
}

// recover replays a committed redo log left by a crash mid-commit.
func (a *Arena) recover() error {
	base := a.redoBase()
	if a.readU64(base+redoFlag) != magic {
		return nil // nothing in flight
	}
	cnt := binary.BigEndian.Uint32(a.View(base+redoCount, 4))
	pos := base + redoOps
	for i := uint32(0); i < cnt; i++ {
		off := a.readU64(pos)
		n := binary.BigEndian.Uint32(a.View(pos+8, 4))
		data := a.ReadBytes(pos+12, int(n))
		if err := a.dev.WriteThrough(data, int(off)); err != nil {
			return fmt.Errorf("pmobj: recover replay: %w", err)
		}
		pos += 12 + uint64(n)
	}
	a.setRedoFlag(0)
	a.stats.Recoveries++
	return nil
}

// Reopen re-runs recovery after a crash: the device holds every write that
// returned, so replaying any committed redo restores the last committed
// state and a record never committed is discarded.
func (a *Arena) Reopen() error {
	a.tx.open = false // a transaction open at the failure died with it
	return a.recover()
}
