package pmem

import (
	"bytes"
	"errors"
	"testing"

	"pmnet/internal/sim"
)

func newDev(capacity int) *Device {
	return NewDevice(DefaultConfig(capacity))
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(4096)
	msg := []byte("hello persistent world")
	if err := d.WriteThrough(msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, want %q", got, msg)
	}
}

// TestOutOfRangeErrors: every access to bytes outside the device fails with
// ErrOutOfRange, an empty one included (ReadU64s reads the words covering n
// bytes, so an empty range reads none).
func TestOutOfRangeErrors(t *testing.T) {
	d := newDev(128)
	cases := []struct {
		off, n int
	}{
		{-1, 4}, {120, 16}, {0, 129}, {128, 1}, {-5, 0}, {5000, 0},
	}
	for _, c := range cases {
		if err := d.WriteThrough(make([]byte, c.n), c.off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WriteThrough(%d,%d) err = %v, want ErrOutOfRange", c.off, c.n, err)
		}
		if err := d.ReadAt(make([]byte, c.n), c.off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadAt(%d,%d) err = %v, want ErrOutOfRange", c.off, c.n, err)
		}
		if err := d.ReadU64s(make([]uint64, (c.n+7)/8), c.off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadU64s(%d words, %d) err = %v, want ErrOutOfRange", (c.n+7)/8, c.off, err)
		}
	}
}

// TestView: View is ReadAt without the copy — the same counters, the same
// bounds error (and then nothing counted), the device's own bytes, and a
// capacity that stops an append from writing past them into the device.
func TestView(t *testing.T) {
	d := newDev(128)
	if err := d.WriteThrough([]byte("abcdefgh"), 8); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	v, err := d.View(8, 4)
	if err != nil || string(v) != "abcd" || cap(v) != 4 {
		t.Fatalf("View(8,4) = %q (cap %d), %v", v, cap(v), err)
	}
	if st := d.Stats(); st.Reads != before.Reads+1 || st.BytesRead != before.BytesRead+4 {
		t.Fatalf("View counted %+v, want one read of 4 bytes past %+v", st, before)
	}
	_ = append(v, 'X')
	got := make([]byte, 8)
	if err := d.ReadAt(got, 8); err != nil || string(got) != "abcdefgh" {
		t.Fatalf("append to a view reached the device: %q, %v", got, err)
	}
	if err := d.WriteThrough([]byte("Z"), 8); err != nil || v[0] != 'Z' {
		t.Fatalf("a view is the device's bytes until the next write: %q, %v", v, err)
	}
	before = d.Stats()
	for _, c := range []struct{ off, n int }{{-1, 4}, {120, 16}, {0, 129}, {128, 1}} {
		if _, err := d.View(c.off, c.n); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("View(%d,%d) err = %v, want ErrOutOfRange", c.off, c.n, err)
		}
	}
	if d.Stats() != before {
		t.Fatalf("out-of-range views were counted: %+v, want %+v", d.Stats(), before)
	}
}

// TestDeviceStats: a write-through counts its pieces as writes and one
// persist when it stores anything; an empty one counts its write alone.
func TestDeviceStats(t *testing.T) {
	d := newDev(1024)
	_ = d.WriteThrough(make([]byte, 10), 0)
	_ = d.WriteThroughGroup(make([]byte, 30), 100, 3)
	_ = d.WriteThrough(nil, 0)
	_ = d.ReadAt(make([]byte, 5), 0)
	want := Stats{Writes: 5, BytesWritten: 40, Reads: 1, BytesRead: 5, Persists: 2}
	if s := d.Stats(); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
}

func TestWriteCostModel(t *testing.T) {
	d := newDev(1024)
	// 273 ns latency + 100 B at 2.5 GB/s = 40 ns serialization.
	if c := d.WriteCost(100); c != 273+40 {
		t.Fatalf("WriteCost(100) = %v, want 313ns", c)
	}
	if c := d.ReadCost(0); c != 170 {
		t.Fatalf("ReadCost(0) = %v, want 170ns", c)
	}
}

func TestBDPEquations(t *testing.T) {
	// Equation 1: 500 µs × 10 Gbps ≈ 5 Mbit.
	bits := BDPBits(500*sim.Microsecond, 10e9)
	if bits < 4.9e6 || bits > 5.1e6 {
		t.Fatalf("Eq.1 BDP = %v bits, want ≈5e6", bits)
	}
	// Equation 2: 100 ns × 10 Gbps ≈ 1 kbit.
	bits = BDPBits(100, 10e9)
	if bits < 990 || bits > 1010 {
		t.Fatalf("Eq.2 BDP = %v bits, want ≈1000", bits)
	}
	// §VII quotes 62.5 MB (= 500 Mbit) of log PM at 100 Gbps; applying
	// Equation 1 literally (500 µs × 100 Gbps) gives 50 Mbit = 6.25 MB, so
	// we pin the equation, not the prose.
	if got := BDPLogBytes(500*sim.Microsecond, 100e9); got != 6_250_000 {
		t.Fatalf("BDPLogBytes @100G = %d, want 6250000", got)
	}
	if got := BDPQueueBytes(100, 100e9); got != 1250 {
		t.Fatalf("BDPQueueBytes @100G = %d, want 1250", got)
	}
}

func TestNewDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDevice with zero capacity did not panic")
		}
	}()
	NewDevice(Config{Capacity: 0})
}

func TestQueueWriteCompletesWithLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(4096)
	q := NewQueue(eng, d, 4096)
	var doneAt sim.Time
	ok := q.TryWrite(0, []byte("abcd"), func() { doneAt = eng.Now() })
	if !ok {
		t.Fatal("TryWrite rejected with empty queue")
	}
	eng.Run()
	want := d.WriteCost(4)
	if doneAt != want {
		t.Fatalf("write completed at %v, want %v", doneAt, want)
	}
	if d.Stats().Persists != 1 {
		t.Fatalf("queued write persisted %d times, want once", d.Stats().Persists)
	}
	got := make([]byte, 4)
	_ = d.ReadAt(got, 0)
	if string(got) != "abcd" {
		t.Fatalf("device holds %q", got)
	}
}

func TestQueueSerializesMedia(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(4096)
	q := NewQueue(eng, d, 4096)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		off := i * 100
		if !q.TryWrite(off, make([]byte, 100), func() { times = append(times, eng.Now()) }) {
			t.Fatal("queue rejected")
		}
	}
	eng.Run()
	// The DMA engine pipelines: the channel serializes at bandwidth (40 ns
	// per 100 B at 2.5 GB/s) while the 273 ns media latency overlaps.
	ser := sim.Time(40)
	for i, at := range times {
		want := ser*sim.Time(i+1) + 273
		if at != want {
			t.Fatalf("write %d done at %v, want %v (pipelined)", i, at, want)
		}
	}
}

func TestQueueRejectsWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(65536)
	q := NewQueue(eng, d, 1024)
	if !q.TryWrite(0, make([]byte, 1000), nil) {
		t.Fatal("first write rejected")
	}
	if q.TryWrite(1000, make([]byte, 100), nil) {
		t.Fatal("overflow write accepted")
	}
	s := q.Stats()
	if s.WritesAccepted != 1 || s.WritesRejected != 1 {
		t.Fatalf("stats %+v", s)
	}
	eng.Run()
	// After draining there is room again.
	if !q.TryWrite(1000, make([]byte, 100), nil) {
		t.Fatal("write rejected after drain")
	}
}

func TestQueueRead(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(4096)
	_ = d.WriteThrough([]byte("logged"), 64)
	q := NewQueue(eng, d, 4096)
	var got []byte
	if !q.TryRead(64, 6, func(b []byte) { got = b }) {
		t.Fatal("TryRead rejected")
	}
	eng.Run()
	if string(got) != "logged" {
		t.Fatalf("read %q", got)
	}
}

func TestQueuePowerFailDropsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(4096)
	q := NewQueue(eng, d, 4096)
	fired := false
	q.TryWrite(0, []byte{1, 2, 3}, func() { fired = true })
	if q.InFlight() != 1 {
		t.Fatalf("InFlight = %d", q.InFlight())
	}
	q.PowerFail()
	eng.Run()
	if fired {
		t.Fatal("completion fired after power failure")
	}
	if q.InFlight() != 0 || q.UsedBytes() != 0 {
		t.Fatal("queue not emptied by power failure")
	}
	b := make([]byte, 3)
	_ = d.ReadAt(b, 0)
	if b[0] != 0 {
		t.Fatal("data leaked to device across power failure")
	}
	if q.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", q.Stats().Dropped)
	}
	// Queue must be usable after restart.
	ok := q.TryWrite(0, []byte{7}, nil)
	if !ok {
		t.Fatal("queue unusable after power failure")
	}
	eng.Run()
	_ = d.ReadAt(b[:1], 0)
	if b[0] != 7 {
		t.Fatal("post-restart write did not land")
	}
}

func TestQueueMaxUsedTracking(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(4096)
	q := NewQueue(eng, d, 4096)
	q.TryWrite(0, make([]byte, 300), nil)
	q.TryWrite(300, make([]byte, 300), nil)
	if q.Stats().MaxUsedBytes != 600 {
		t.Fatalf("MaxUsedBytes = %d, want 600", q.Stats().MaxUsedBytes)
	}
	eng.Run()
	if q.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after drain", q.UsedBytes())
	}
}
