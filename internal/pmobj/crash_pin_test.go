package pmobj

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pmnet/internal/pmem"
)

// observe is what a crash leaves visible: the device counters, the arena
// counters, and a digest of the image. The image is read after the counters
// were captured.
func observe(t *testing.T, a *Arena) string {
	t.Helper()
	dev := a.Device()
	s := fmt.Sprintf("%+v %+v", dev.Stats(), a.Stats())
	img := make([]byte, dev.Len())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	return s + " " + hex.EncodeToString(sum[:8])
}

// crashScript formats an arena on a device whose capacity is not a round
// number, commits a small history (three blocks, one freed), and runs a
// commit that CrashHook abandons at stage (0: never), then reopens. The
// "power fail" observation stands where the device used to lose power: it
// now loses nothing to one, every write being durable on return. It returns
// an observation after each phase.
func crashScript(t *testing.T, stage int) []string {
	a, err := Open(pmem.NewDevice(pmem.DefaultConfig(1<<20-40)), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	var obs []string
	snap := func(phase string) { obs = append(obs, phase+": "+observe(t, a)) }
	snap("format")
	var blocks [3]uint64
	for i := range blocks {
		if err := a.Update(func(tx *Tx) error {
			off, err := tx.Alloc(100)
			blocks[i] = off
			tx.WriteBytes(off, bytes100(byte('a'+i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Update(func(tx *Tx) error { tx.Free(blocks[1], 100); return nil }); err != nil {
		t.Fatal(err)
	}
	snap("history")
	a.CrashHook = func(s int) bool { return s == stage }
	tx := a.Begin()
	off, err := tx.Alloc(100) // blocks[1], off the free list
	if err != nil {
		t.Fatal(err)
	}
	tx.WriteBytes(off, bytes100('x')[:90])
	tx.WriteU64(blocks[0], 7)
	tx.WriteBytes(blocks[2]+8, bytes100('y')[:40])
	tx.SetRoot(off)
	tx.Commit()
	a.CrashHook = nil
	snap("commit")
	snap("power fail")
	if err := a.Reopen(); err != nil {
		t.Fatal(err)
	}
	snap("reopen")
	return obs
}

func bytes100(c byte) []byte {
	b := make([]byte, 100)
	for i := range b {
		b[i] = c + byte(i%7)
	}
	return b
}

// TestCrashStagePin holds a commit abandoned at each CrashHook stage — and
// one that completes — to the device counters, arena counters and image
// digests it produced at commit 897f2c8, before the commit's writes went
// through pmem.Device.WriteThrough, re-derived by one rule when the device
// lost its volatile writes: the script's two stray uncommitted writes went,
// so each post-commit image is the one their power failure used to leave,
// and each count of device writes is two lower and of bytes written ten.
func TestCrashStagePin(t *testing.T) {
	before := []string{
		"format: {Writes:17 BytesWritten:136 Reads:1 BytesRead:8 Persists:1} {Allocs:0 Frees:0 Commits:0 Recoveries:0 BytesAlloc:0} ebd2035e3ac927ae",
		"history: {Writes:56 BytesWritten:1036 Reads:10 BytesRead:1048608 Persists:22} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} f324c45584a45eaf",
	}
	after := [4][]string{
		{
			"commit: {Writes:77 BytesWritten:1456 Reads:14 BytesRead:2097168 Persists:31} {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} a3bd64db4fc5b5f6",
			"power fail: {Writes:77 BytesWritten:1456 Reads:15 BytesRead:3145704 Persists:31} {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} a3bd64db4fc5b5f6",
			"reopen: {Writes:77 BytesWritten:1456 Reads:17 BytesRead:4194248 Persists:31} {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} a3bd64db4fc5b5f6",
		},
		{
			"commit: {Writes:69 BytesWritten:1278 Reads:14 BytesRead:2097168 Persists:23} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 2de95f06f38d69ca",
			"power fail: {Writes:69 BytesWritten:1278 Reads:15 BytesRead:3145704 Persists:23} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 2de95f06f38d69ca",
			"reopen: {Writes:69 BytesWritten:1278 Reads:17 BytesRead:4194248 Persists:23} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 2de95f06f38d69ca",
		},
		{
			"commit: {Writes:70 BytesWritten:1286 Reads:14 BytesRead:2097168 Persists:24} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} e6a72acce954b0e1",
			"power fail: {Writes:70 BytesWritten:1286 Reads:15 BytesRead:3145704 Persists:24} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} e6a72acce954b0e1",
			"reopen: {Writes:77 BytesWritten:1456 Reads:36 BytesRead:4194486 Persists:31} {Allocs:3 Frees:1 Commits:4 Recoveries:1 BytesAlloc:0} a3bd64db4fc5b5f6",
		},
		{
			"commit: {Writes:74 BytesWritten:1432 Reads:14 BytesRead:2097168 Persists:28} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} ef8c1d026dacd004",
			"power fail: {Writes:74 BytesWritten:1432 Reads:15 BytesRead:3145704 Persists:28} {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} ef8c1d026dacd004",
			"reopen: {Writes:81 BytesWritten:1602 Reads:36 BytesRead:4194486 Persists:35} {Allocs:3 Frees:1 Commits:4 Recoveries:1 BytesAlloc:0} a3bd64db4fc5b5f6",
		},
	}
	for stage, tail := range after {
		want := append(append([]string(nil), before...), tail...)
		got := crashScript(t, stage)
		if len(got) != len(want) {
			t.Fatalf("stage %d: %d observations, want %d", stage, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("stage %d:\n got  %s\n want %s", stage, got[i], want[i])
			}
		}
	}
}
