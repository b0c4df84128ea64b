package pmem

// Allocation pins + micro-benchmarks for the persistence hot path. Dirty-line
// tracking is a word-packed bitset scanned with TrailingZeros64 and pre-image
// slots recycle through a free stack, so once the slot store has reached the
// peak dirty count WriteAt and Persist touch no heap at all.

import (
	"testing"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// TestPersistAllocs pins WriteAt + Persist to zero allocations.
func TestPersistAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	d := NewDevice(DefaultConfig(1 << 16))
	buf := make([]byte, 1024)
	round := func() {
		if err := d.WriteAt(buf, 4096); err != nil {
			t.Fatal(err)
		}
		if err := d.Persist(4096, len(buf)); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("WriteAt+Persist allocated %.1f objects per round, want 0", got)
	}

	// The overlapping steady state: write A, write B, persist A, write C,
	// persist B, … — a persist always trails a write, so DirtyLines never
	// reaches 0 and every write must draw the slots the persist before it
	// freed. The store stays at the peak dirty count: two writes' lines.
	next := 0
	at := func(i int) int { return (i % 16) * 2048 }
	overlap := func() {
		if err := d.WriteAt(buf, at(next+1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Persist(at(next), len(buf)); err != nil {
			t.Fatal(err)
		}
		if d.DirtyLines() == 0 {
			t.Fatal("DirtyLines reached 0: the rounds do not overlap")
		}
		next++
	}
	if err := d.WriteAt(buf, at(0)); err != nil {
		t.Fatal(err)
	}
	overlap()
	if got := testing.AllocsPerRun(100, overlap); got != 0 {
		t.Errorf("overlapping WriteAt/Persist allocated %.1f objects per round, want 0", got)
	}
	perWrite := len(buf) / d.cfg.LineSize
	if slots := len(d.pre) / d.cfg.LineSize; slots != 2*perWrite {
		t.Errorf("slot store holds %d lines, want the peak dirty count %d", slots, 2*perWrite)
	}
}

// TestQueueWriteAllocs pins a queued log write, TryWrite through its
// completion's WriteThrough, to zero allocations.
func TestQueueWriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	eng := sim.NewEngine()
	d := NewDevice(DefaultConfig(1 << 16))
	q := NewQueue(eng, d, 4096)
	buf := make([]byte, 1024)
	done := func() {}
	round := func() {
		if !q.TryWrite(4096, buf, done) {
			t.Fatal("TryWrite rejected on an empty queue")
		}
		eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("queued write allocated %.1f objects per round, want 0", got)
	}
	if len(d.pre) != 0 || d.slot != nil {
		t.Errorf("queued writes saved %d bytes of pre-images (slot index allocated: %v), want none",
			len(d.pre), d.slot != nil)
	}
}

// BenchmarkPersistAll measures a scattered-write + whole-device barrier
// cycle: the PersistAll scan must skip clean words quickly and flush only the
// dirty lines.
func BenchmarkPersistAll(b *testing.B) {
	const capacity = 1 << 20
	d := NewDevice(DefaultConfig(capacity))
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			off := ((i*8 + j) * 4096) % capacity
			if err := d.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		d.PersistAll()
	}
}

// BenchmarkPowerFail measures a power failure with one dirty line on a
// 128 MB device: the cost must follow the dirty set, not the capacity.
func BenchmarkPowerFail(b *testing.B) {
	d := NewDevice(DefaultConfig(128 << 20))
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, 77<<20); err != nil {
			b.Fatal(err)
		}
		d.PowerFail()
	}
}

// BenchmarkNewDeviceRecycled measures the life of a 128 MB device that
// touches one chunk: NewDevice draws the image the Release before it cleared.
func BenchmarkNewDeviceRecycled(b *testing.B) {
	cfg := DefaultConfig(128 << 20)
	buf := make([]byte, 1024)
	NewDevice(cfg).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDevice(cfg)
		if err := d.WriteAt(buf, 77<<20); err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}
