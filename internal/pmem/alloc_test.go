package pmem

// Allocation pins + micro-benchmarks for the persistence hot path: a write
// goes through into the one image and a queued write recycles its record, so
// neither touches the heap.

import (
	"testing"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// TestPersistAllocs pins WriteThrough, a write and its persist, to zero
// allocations.
func TestPersistAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	d := NewDevice(DefaultConfig(1 << 16))
	buf := make([]byte, 1024)
	round := func() {
		if err := d.WriteThrough(buf, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("WriteThrough allocated %.1f objects per round, want 0", got)
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
		if err := d.WriteThrough(buf, 77<<20); err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}
