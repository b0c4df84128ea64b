package pmobj

// The arena owns one Tx and Begin resets it in place. These tests hold the
// edges of that reuse: nothing of one transaction may leak into the next, and
// the buffered stores must survive their scratch growing.

import (
	"bytes"
	"testing"
)

// TestBeginReusesTheOneTx: every Begin hands out the same object, reset. A
// handle kept past Commit is therefore the next transaction's handle — and a
// closed transaction still refuses writes until then.
func TestBeginReusesTheOneTx(t *testing.T) {
	a := newArena(t, 1<<20)
	tx1 := a.Begin()
	off, _ := tx1.Alloc(64)
	tx1.WriteU64(off, 1)
	tx1.Free(off, 64) // leaves a pending head and a buffered store behind
	tx1.Abort()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("write through a closed transaction did not panic")
			}
		}()
		tx1.WriteU64(off, 2)
	}()

	tx2 := a.Begin()
	if tx2 != tx1 {
		t.Fatal("Begin allocated a second Tx")
	}
	if got := tx2.ReadU64(off); got != 0 {
		t.Fatalf("aborted store visible in the next transaction: %d", got)
	}
	if got, _ := tx2.Alloc(64); got != off {
		t.Fatalf("aborted transaction moved the allocator: block %d, want %d again", got, off)
	}
	tx1.WriteU64(off, 3) // the stale handle names the open transaction
	tx2.Commit()
	if got := a.ReadU64(off); got != 3 {
		t.Fatalf("store through the kept handle: %d, want 3", got)
	}
	if st := a.Stats(); st.Commits != 1 || st.Allocs != 1 || st.Frees != 0 {
		t.Fatalf("aborted transaction's counts folded into the next: %+v", st)
	}
}

// TestCrashedCommitThenReuse: a commit abandoned at each crash stage, a power
// failure, Reopen, then a fresh transaction on the same Tx object — which must
// carry none of the torn one's stores, heads or bump pointer.
func TestCrashedCommitThenReuse(t *testing.T) {
	for stage := 1; stage <= 3; stage++ {
		a := newArena(t, 1<<20)
		var keep uint64
		_ = a.Update(func(tx *Tx) error {
			keep, _ = tx.Alloc(64)
			tx.WriteU64(keep, 7)
			return nil
		})
		a.CrashHook = func(s int) bool { return s == stage }
		tx := a.Begin()
		torn, _ := tx.Alloc(64)
		tx.WriteU64(torn, 99)
		tx.Free(keep, 64)
		tx.Commit() // abandoned
		a.CrashHook = nil
		if err := a.Reopen(); err != nil {
			t.Fatal(err)
		}
		applied := stage >= 2 // past the flag: recovery replays it

		next := a.Begin()
		if next != tx {
			t.Fatalf("stage %d: Begin allocated a second Tx", stage)
		}
		got, _ := next.Alloc(64)
		switch {
		case applied && got != keep: // the replayed Free put keep on the list
			t.Fatalf("stage %d: alloc after replayed free = %d, want %d", stage, got, keep)
		case !applied && got != torn: // discarded: the bump pointer never moved
			t.Fatalf("stage %d: alloc after discarded commit = %d, want %d", stage, got, torn)
		}
		next.WriteU64(got, 11)
		next.Commit()
		if a.ReadU64(got) != 11 {
			t.Fatalf("stage %d: commit on the reused transaction lost", stage)
		}
		if want := map[bool]uint64{true: 99, false: 11}[applied]; a.ReadU64(torn) != want {
			t.Fatalf("stage %d: torn block reads %d, want %d", stage, a.ReadU64(torn), want)
		}
	}
}

// TestReopenWithTransactionOpen: a power failure under an open transaction.
// Reopen closes it — its buffered stores died with the power — and the next
// Begin works instead of panicking as nested.
func TestReopenWithTransactionOpen(t *testing.T) {
	a := newArena(t, 1<<20)
	tx := a.Begin()
	off, _ := tx.Alloc(32)
	tx.WriteU64(off, 5)
	if err := a.Reopen(); err != nil {
		t.Fatal(err)
	}
	if a.TxReadU64(off) != 0 {
		t.Fatal("overlay of the dead transaction still answers reads")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("commit of a transaction that died in the failure did not panic")
			}
		}()
		tx.Commit()
	}()
	_ = a.Update(func(tx *Tx) error {
		got, _ := tx.Alloc(32)
		if got != off {
			t.Errorf("dead transaction moved the bump pointer: %d, want %d", got, off)
		}
		return nil
	})
}

// TestOverlayAcrossScratchGrowth: ops index the transaction's byte scratch
// rather than slicing it, so a store larger than the scratch's capacity —
// which moves it — leaves every earlier store readable and committable.
func TestOverlayAcrossScratchGrowth(t *testing.T) {
	a := newArena(t, 1<<20)
	_ = a.Update(func(tx *Tx) error { tx.WriteU64(offRoot, 0); return nil }) // size the scratch small
	tx := a.Begin()
	small, _ := tx.Alloc(16)
	tx.WriteU64(small, 0xA1)
	tx.WriteU64(small+8, 0xA2)
	before := cap(tx.buf)
	big, _ := tx.Alloc(4096)
	fill := bytes.Repeat([]byte{0xEE}, 4096)
	tx.WriteBytes(big, fill)
	if cap(tx.buf) == before {
		t.Fatalf("setup: scratch did not grow (cap %d)", before)
	}
	if tx.ReadU64(small) != 0xA1 || tx.ReadU64(small+8) != 0xA2 {
		t.Fatal("stores buffered before the growth are unreadable after it")
	}
	if tx.ReadU64(big+8) != 0xEEEEEEEEEEEEEEEE {
		t.Fatal("wide store not readable through the overlay")
	}
	tx.Commit()
	if a.ReadU64(small) != 0xA1 || a.ReadU64(small+8) != 0xA2 || !bytes.Equal(a.ReadBytes(big, 4096), fill) {
		t.Fatal("commit after a scratch growth wrote the wrong bytes")
	}
}

// TestFreeListHeadsDoNotLeak: the pending heads are an array plus a bitmask,
// and the mask is what Begin clears. A class freed in one transaction must
// read its head from the device in the next, and a class untouched in this
// transaction must not be written by its commit.
func TestFreeListHeadsDoNotLeak(t *testing.T) {
	a := newArena(t, 1<<20)
	var b64, b256 uint64
	_ = a.Update(func(tx *Tx) error {
		b64, _ = tx.Alloc(64)
		b256, _ = tx.Alloc(256)
		return nil
	})
	_ = a.Update(func(tx *Tx) error { tx.Free(b64, 64); return nil })
	writes := a.Device().Stats().Writes
	_ = a.Update(func(tx *Tx) error { tx.Free(b256, 256); return nil })
	// One transaction of three stores — the block's next pointer, the bump
	// pointer, class 256's head — is 2×3 redo writes, the count word, 3 home
	// writes and the flag set and cleared: 12. A leaked class-64 head would
	// add a store (3 more writes).
	if got := a.Device().Stats().Writes - writes; got != 12 {
		t.Fatalf("commit of one Free made %d device writes, want 12", got)
	}
	_ = a.Update(func(tx *Tx) error {
		if got, _ := tx.Alloc(64); got != b64 {
			t.Errorf("class 64 head lost: %d, want %d", got, b64)
		}
		if got, _ := tx.Alloc(256); got != b256 {
			t.Errorf("class 256 head lost: %d, want %d", got, b256)
		}
		return nil
	})
}
