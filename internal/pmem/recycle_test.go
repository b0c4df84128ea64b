package pmem

import (
	"errors"
	"sync"
	"testing"

	"pmnet/internal/sim"
)

// TestRecycledDeviceIsZero fills a device at random — single writes and
// groups, the short last chunk among them — releases it, and requires the
// next device of that capacity to be the same memory and yet
// indistinguishable from a fresh one, while the old handle refuses every
// access.
func TestRecycledDeviceIsZero(t *testing.T) {
	// A capacity no other test uses (the free list is process-wide), several
	// chunks long and not a multiple of the chunk size.
	cfg := DefaultConfig(5<<chunkShift + 12345)
	r := sim.NewRand(7)
	old := NewDevice(cfg)
	image := old.image
	buf := make([]byte, 3000)
	for i := 0; i < 200; i++ {
		for j := range buf {
			buf[j] = byte(r.Uint64()) | 1
		}
		n := 1 + r.Intn(len(buf))
		off := r.Intn(cfg.Capacity - n + 1)
		if err := old.WriteThroughGroup(buf[:n], off, 1+r.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.WriteThrough(buf[:100], cfg.Capacity-100); err != nil { // the short last chunk
		t.Fatal(err)
	}
	old.Release()

	d := NewDevice(cfg)
	if &d.image[0] != &image[0] {
		t.Fatal("NewDevice did not draw the released image")
	}
	for i, b := range d.image {
		if b != 0 {
			t.Fatalf("recycled image byte %d = %#x, want 0", i, b)
		}
	}
	if d.Stats() != (Stats{}) {
		t.Fatalf("recycled device: stats %+v", d.Stats())
	}

	if err := old.ReadAt(buf[:1], 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadAt on a released device: %v", err)
	}
	if err := old.ReadAt(nil, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("empty ReadAt on a released device: %v", err)
	}
	if _, err := old.View(0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("empty View on a released device: %v", err)
	}
	if _, err := old.ReadU64(0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadU64 on a released device: %v", err)
	}
	if err := old.ReadU64s(make([]uint64, 2), 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadU64s on a released device: %v", err)
	}
	if err := old.ReadU64s(nil, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("empty ReadU64s on a released device: %v", err)
	}
	if err := old.WriteThrough(buf[:1], 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WriteThrough on a released device: %v", err)
	}
	if err := old.WriteThroughGroup(nil, 0, 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("empty WriteThroughGroup on a released device: %v", err)
	}
	old.Release() // a second release must not put the image on the list twice
	d.Release()
	a, b := NewDevice(cfg), NewDevice(cfg)
	if &a.image[0] == &b.image[0] {
		t.Fatal("two live devices share one image")
	}
	if &a.image[0] != &image[0] {
		t.Fatal("the image was not released again")
	}
	for _, b := range a.image {
		if b != 0 {
			t.Fatal("the released handle wrote into the image it gave up")
		}
	}
}

// TestReleaseAndDrawConcurrently is for the race detector: cells on different
// goroutines release into and draw from the one free list, and every device
// drawn must be zero and private to its goroutine.
func TestReleaseAndDrawConcurrently(t *testing.T) {
	cfg := DefaultConfig(3<<chunkShift + 99)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = fill
			}
			for i := 0; i < 200; i++ {
				d := NewDevice(cfg)
				off := (i * 7919) % (cfg.Capacity - len(buf))
				got, err := d.View(off, len(buf))
				if err != nil {
					t.Error(err)
					return
				}
				for _, b := range got {
					if b != 0 {
						t.Errorf("drew a device holding %#x", b)
						return
					}
				}
				if err := d.WriteThrough(buf, off); err != nil {
					t.Error(err)
					return
				}
				got, _ = d.View(off, len(buf))
				for _, b := range got {
					if b != fill {
						t.Errorf("device shared across goroutines: read %#x, wrote %#x", b, fill)
						return
					}
				}
				d.Release()
			}
		}(byte(g + 1))
	}
	wg.Wait()
}
