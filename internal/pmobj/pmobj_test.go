package pmobj

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pmnet/internal/pmem"
)

func newArena(t *testing.T, capacity int) *Arena {
	t.Helper()
	dev := pmem.NewDevice(pmem.DefaultConfig(capacity))
	a, err := Open(dev, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOpenFormatsAndReopens(t *testing.T) {
	dev := pmem.NewDevice(pmem.DefaultConfig(1 << 20))
	a, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != 0 {
		t.Fatal("fresh arena has nonzero root")
	}
	// Store a root, then re-open the same device: state survives.
	if err := a.Update(func(tx *Tx) error {
		off, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		tx.WriteBytes(off, []byte("rooted"))
		tx.SetRoot(off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Root() == 0 || string(b.ReadBytes(b.Root(), 6)) != "rooted" {
		t.Fatal("root lost across reopen")
	}
}

func TestCommitDurableAcrossPowerFail(t *testing.T) {
	a := newArena(t, 1<<20)
	var off uint64
	err := a.Update(func(tx *Tx) error {
		var err error
		off, err = tx.Alloc(32)
		if err != nil {
			return err
		}
		tx.WriteBytes(off, []byte("durable!"))
		tx.SetRoot(off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := a.ReadBytes(off, 8); string(got) != "durable!" {
		t.Fatalf("committed data lost: %q", got)
	}
}

func TestAbortLeavesNoTrace(t *testing.T) {
	a := newArena(t, 1<<20)
	bumpBefore := a.ReadU64(offBump)
	tx := a.Begin()
	o, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	tx.WriteBytes(o, []byte("ghost"))
	tx.SetRoot(o)
	tx.Abort()
	if a.ReadU64(offBump) != bumpBefore {
		t.Fatal("abort moved the bump pointer")
	}
	if a.Root() != 0 {
		t.Fatal("abort set the root")
	}
}

func TestTornCommitBeforeFlagDiscarded(t *testing.T) {
	a := newArena(t, 1<<20)
	a.CrashHook = func(stage int) bool { return stage == 1 }
	tx := a.Begin()
	off, _ := tx.Alloc(32)
	tx.WriteBytes(off, []byte("torn"))
	tx.SetRoot(off)
	tx.Commit() // abandoned at stage 1 (flag not yet set)
	a.CrashHook = nil
	if err := a.Reopen(); err != nil {
		t.Fatal(err)
	}
	if a.Root() != 0 {
		t.Fatal("pre-flag torn commit became visible")
	}
}

func TestTornCommitAfterFlagReplayed(t *testing.T) {
	for _, stage := range []int{2, 3} {
		a := newArena(t, 1<<20)
		a.CrashHook = func(s int) bool { return s == stage }
		tx := a.Begin()
		off, _ := tx.Alloc(32)
		tx.WriteBytes(off, []byte("replayed"))
		tx.SetRoot(off)
		tx.Commit() // abandoned mid-apply
		a.CrashHook = nil
		if err := a.Reopen(); err != nil {
			t.Fatal(err)
		}
		if a.Stats().Recoveries != 1 {
			t.Fatalf("stage %d: recovery not performed", stage)
		}
		if a.Root() != off {
			t.Fatalf("stage %d: root not replayed", stage)
		}
		if got := a.ReadBytes(off, 8); string(got) != "replayed" {
			t.Fatalf("stage %d: data not replayed: %q", stage, got)
		}
	}
}

func TestAllocFreeReuse(t *testing.T) {
	a := newArena(t, 1<<20)
	var first uint64
	_ = a.Update(func(tx *Tx) error {
		first, _ = tx.Alloc(100) // class 128
		return nil
	})
	_ = a.Update(func(tx *Tx) error {
		tx.Free(first, 100)
		return nil
	})
	var second uint64
	_ = a.Update(func(tx *Tx) error {
		second, _ = tx.Alloc(120) // same class
		return nil
	})
	if second != first {
		t.Fatalf("freed block not reused: %d vs %d", second, first)
	}
}

func TestFreeThenAllocSameTx(t *testing.T) {
	a := newArena(t, 1<<20)
	var b1, b2 uint64
	_ = a.Update(func(tx *Tx) error {
		b1, _ = tx.Alloc(64)
		b2, _ = tx.Alloc(64)
		return nil
	})
	_ = a.Update(func(tx *Tx) error {
		tx.Free(b1, 64)
		tx.Free(b2, 64)
		got1, _ := tx.Alloc(64)
		got2, _ := tx.Alloc(64)
		if got1 != b2 || got2 != b1 {
			t.Errorf("LIFO reuse within tx broken: %d %d vs %d %d", got1, got2, b1, b2)
		}
		got3, _ := tx.Alloc(64) // list empty: bump
		if got3 == b1 || got3 == b2 {
			t.Error("triple reuse of two freed blocks")
		}
		return nil
	})
}

func TestReadYourWrites(t *testing.T) {
	a := newArena(t, 1<<20)
	_ = a.Update(func(tx *Tx) error {
		off, _ := tx.Alloc(16)
		tx.WriteU64(off, 42)
		if tx.ReadU64(off) != 42 {
			t.Error("tx read missed its own write")
		}
		tx.WriteU64(off, 43)
		if tx.ReadU64(off) != 43 {
			t.Error("tx read missed the latest write")
		}
		return nil
	})
}

func TestAllocTooLarge(t *testing.T) {
	a := newArena(t, 1<<20)
	err := a.Update(func(tx *Tx) error {
		_, err := tx.Alloc(1 << 20)
		return err
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	a := newArena(t, 128<<10)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = a.Update(func(tx *Tx) error {
			_, e := tx.Alloc(8 << 10)
			return e
		})
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestNestedTxPanics(t *testing.T) {
	a := newArena(t, 1<<20)
	tx := a.Begin()
	defer tx.Abort()
	defer func() {
		if recover() == nil {
			t.Error("nested Begin did not panic")
		}
	}()
	a.Begin()
}

func TestDeviceTooSmall(t *testing.T) {
	dev := pmem.NewDevice(pmem.DefaultConfig(1024))
	if _, err := Open(dev, 64<<10); err == nil {
		t.Fatal("tiny device accepted")
	}
}

// Property: a sequence of committed transactions writing records survives
// power failure at any inter-transaction boundary; aborted transactions
// never surface.
func TestQuickCommittedStateSurvives(t *testing.T) {
	type step struct {
		Val    [8]byte
		Commit bool
	}
	f := func(steps []step) bool {
		if len(steps) > 40 {
			steps = steps[:40]
		}
		a := newArenaQuick()
		committed := make(map[uint64][]byte)
		for _, s := range steps {
			tx := a.Begin()
			off, err := tx.Alloc(16)
			if err != nil {
				tx.Abort()
				continue
			}
			tx.WriteBytes(off, s.Val[:])
			if s.Commit {
				tx.Commit()
				committed[off] = append([]byte{}, s.Val[:]...)
			} else {
				tx.Abort()
			}
		}
		if err := a.Reopen(); err != nil {
			return false
		}
		for off, want := range committed {
			if !bytes.Equal(a.ReadBytes(off, 8), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func newArenaQuick() *Arena {
	dev := pmem.NewDevice(pmem.DefaultConfig(1 << 20))
	a, err := Open(dev, 16<<10)
	if err != nil {
		panic(err)
	}
	return a
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{{1, 0}, {16, 0}, {17, 1}, {32, 1}, {100, 3}, {65536, nClasses - 1}}
	for _, c := range cases {
		got, err := classFor(c.n)
		if err != nil || got != c.class {
			t.Errorf("classFor(%d) = %d, %v; want %d", c.n, got, err, c.class)
		}
	}
	if _, err := classFor(65537); err == nil {
		t.Error("classFor(65537) should fail")
	}
}
