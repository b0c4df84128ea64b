package pmobj

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pmnet/internal/pmem"
)

// observe is what a crash leaves visible: the device counters and dirty-line
// count, the arena counters, and a digest of the image. The image is read
// after the counters were captured.
func observe(t *testing.T, a *Arena) string {
	t.Helper()
	dev := a.Device()
	s := fmt.Sprintf("%+v dirty=%d %+v", dev.Stats(), dev.DirtyLines(), a.Stats())
	img := make([]byte, dev.Len())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	return s + " " + hex.EncodeToString(sum[:8])
}

// crashScript formats an arena on a device with 64-byte lines and a short
// last line, commits a small history (three blocks, one freed), leaves two
// plain device writes dirty — one on a line the next commit rewrites, one on
// a line it does not — and runs a commit that CrashHook abandons at stage
// (0: never), then power-fails and reopens. It returns an observation after
// each phase.
func crashScript(t *testing.T, stage int) []string {
	cfg := pmem.DefaultConfig(1<<20 - 40)
	cfg.LineSize = 64
	a, err := Open(pmem.NewDevice(cfg), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev := a.Device()
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
	if err := dev.WriteAt([]byte("stray"), int(blocks[0])+3); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt([]byte("other"), int(blocks[2])+70); err != nil {
		t.Fatal(err)
	}
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
	dev.PowerFail()
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
// one that completes — to the device counters, dirty lines, arena counters
// and image digests it produced at commit 897f2c8, before the commit's writes
// went through pmem.Device.WriteThrough: a write-through must leave exactly
// what WriteAt followed by Persist of the same range left.
func TestCrashStagePin(t *testing.T) {
	before := []string{
		"format: {Writes:17 BytesWritten:136 Reads:1 BytesRead:8 Persists:1 PowerFailures:0} dirty=0 {Allocs:0 Frees:0 Commits:0 Recoveries:0 BytesAlloc:0} ebd2035e3ac927ae",
		"history: {Writes:56 BytesWritten:1036 Reads:10 BytesRead:1048608 Persists:22 PowerFailures:0} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} f324c45584a45eaf",
	}
	after := [4][]string{
		{
			"commit: {Writes:79 BytesWritten:1466 Reads:14 BytesRead:2097168 Persists:31 PowerFailures:0} dirty=1 {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} 68a7a65f3ec7a1f7",
			"power fail: {Writes:79 BytesWritten:1466 Reads:15 BytesRead:3145704 Persists:31 PowerFailures:1} dirty=0 {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} a3bd64db4fc5b5f6",
			"reopen: {Writes:79 BytesWritten:1466 Reads:17 BytesRead:4194248 Persists:31 PowerFailures:1} dirty=0 {Allocs:4 Frees:1 Commits:5 Recoveries:0 BytesAlloc:0} a3bd64db4fc5b5f6",
		},
		{
			"commit: {Writes:71 BytesWritten:1288 Reads:14 BytesRead:2097168 Persists:23 PowerFailures:0} dirty=2 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} de254449aaac80a3",
			"power fail: {Writes:71 BytesWritten:1288 Reads:15 BytesRead:3145704 Persists:23 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 2de95f06f38d69ca",
			"reopen: {Writes:71 BytesWritten:1288 Reads:17 BytesRead:4194248 Persists:23 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 2de95f06f38d69ca",
		},
		{
			"commit: {Writes:72 BytesWritten:1296 Reads:14 BytesRead:2097168 Persists:24 PowerFailures:0} dirty=2 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} 324a96a2a911bf7f",
			"power fail: {Writes:72 BytesWritten:1296 Reads:15 BytesRead:3145704 Persists:24 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} e6a72acce954b0e1",
			"reopen: {Writes:79 BytesWritten:1466 Reads:36 BytesRead:4194486 Persists:31 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:1 BytesAlloc:0} a3bd64db4fc5b5f6",
		},
		{
			"commit: {Writes:76 BytesWritten:1442 Reads:14 BytesRead:2097168 Persists:28 PowerFailures:0} dirty=1 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} de64c4facd0e058f",
			"power fail: {Writes:76 BytesWritten:1442 Reads:15 BytesRead:3145704 Persists:28 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:0 BytesAlloc:0} ef8c1d026dacd004",
			"reopen: {Writes:83 BytesWritten:1612 Reads:36 BytesRead:4194486 Persists:35 PowerFailures:1} dirty=0 {Allocs:3 Frees:1 Commits:4 Recoveries:1 BytesAlloc:0} a3bd64db4fc5b5f6",
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
