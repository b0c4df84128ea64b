// Package pmem simulates a byte-addressable persistent memory device.
//
// It stands in for the battery-backed DRAM / Optane DCPMM used by the PMNet
// paper (§V-A). Every write reaches the persistence domain before it returns,
// so the device keeps ONE image, which is both what a running program reads
// back and what survives a power failure. The only volatile PM state a run
// has is the SRAM log queue in queue.go: it holds writes until the modelled
// media latency elapses, and a power failure drops those in flight whole. A
// write torn part-way through is not modelled.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"pmnet/internal/sim"
)

// Config describes the simulated device. Defaults follow the paper: the
// FPGA's DRAM write latency is 273 ns ("close to Optane PM's write latency")
// and the per-DIMM bandwidth is 2.5 GB/s (§VII).
type Config struct {
	Capacity     int      // bytes of persistent media
	WriteLatency sim.Time // media write (persist) latency per operation
	ReadLatency  sim.Time // media read latency per operation
	BandwidthBps float64  // media bandwidth in bytes per second
}

// DefaultConfig returns the paper-calibrated device configuration with the
// given capacity.
func DefaultConfig(capacity int) Config {
	return Config{
		Capacity:     capacity,
		WriteLatency: 273,   // ns, §V-A
		ReadLatency:  170,   // ns, Optane-class read
		BandwidthBps: 2.5e9, // 2.5 GB/s, §VII
	}
}

// Errors returned by Device operations.
var (
	ErrOutOfRange = errors.New("pmem: access out of range")
)

// Stats counts device activity for reporting and tests.
type Stats struct {
	Writes       uint64
	BytesWritten uint64
	Reads        uint64
	BytesRead    uint64
	Persists     uint64
}

// Device is a simulated PM DIMM: one flat image, which is at once what a
// running program reads back and the durable state. Every write goes through
// to it and is durable when it returns, so a power failure of the device
// loses nothing and changes nothing: a crash is what the caller abandons
// before writing (a pmobj CrashHook stage) or what a Queue drops in flight.
//
// Device is not safe for concurrent use; in this codebase every device is
// owned by a single simulated component on the single-threaded virtual clock.
type Device struct {
	cfg     Config
	image   []byte
	touched []uint64 // bitset, one bit per chunk of the image ever written
	stats   Stats
}

// chunkShift sizes the chunks of the touched bitset (64 KB): Release clears
// the chunks a device's life wrote, not its capacity.
const chunkShift = 16

// images is the process-wide free list of released device images, keyed by
// capacity. Every image on it is all zero, so an image drawn from it cannot
// be told from a fresh one: the list carries memory between devices, never
// content.
var images = struct {
	//pmnetlint:ignore sharedstate cells on different goroutines share this list, and only all-zero memory passes through it
	sync.Mutex
	byCap map[int][][]byte
}{byCap: make(map[int][][]byte)}

// newImage returns a zeroed image, a released one when the list has one of
// that capacity.
func newImage(capacity int) []byte {
	images.Lock()
	defer images.Unlock()
	l := images.byCap[capacity]
	if k := len(l) - 1; k >= 0 {
		img := l[k]
		l[k] = nil
		images.byCap[capacity] = l[:k]
		return img
	}
	return make([]byte, capacity)
}

// NewDevice creates a zeroed device. It panics on a non-positive capacity:
// that is a construction-time programming error.
func NewDevice(cfg Config) *Device {
	if cfg.Capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	return &Device{
		cfg:     cfg,
		image:   newImage(cfg.Capacity),
		touched: make([]uint64, (cfg.Capacity>>chunkShift)/64+1),
	}
}

// Release ends the device's life: it zeroes the chunks of the image that
// were ever written and hands the image to the free list NewDevice draws
// from, so a device costs the host what it touched, not its capacity. The
// device answers every later access with ErrOutOfRange.
func (d *Device) Release() {
	if d.image == nil {
		return
	}
	for w, word := range d.touched {
		for ; word != 0; word &= word - 1 {
			lo := (w<<6 + bits.TrailingZeros64(word)) << chunkShift
			hi := lo + 1<<chunkShift
			if hi > len(d.image) {
				hi = len(d.image)
			}
			clear(d.image[lo:hi])
		}
	}
	images.Lock()
	images.byCap[len(d.image)] = append(images.byCap[len(d.image)], d.image)
	images.Unlock()
	*d = Device{cfg: d.cfg, stats: d.stats}
}

// touch records that [off, off+n), n > 0, was written.
func (d *Device) touch(off, n int) {
	for c := off >> chunkShift; c <= (off+n-1)>>chunkShift; c++ {
		d.touched[c>>6] |= 1 << (uint(c) & 63)
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Len returns the device capacity in bytes.
func (d *Device) Len() int { return len(d.image) }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(d.image) || d.image == nil {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, off, off+n, len(d.image))
	}
	return nil
}

// WriteThrough stores p into the image at off, durably: it is the media write
// and its persist barrier in one (the log queue's write completion, every
// write of a pmobj commit). It counts one write, len(p) bytes and — for a
// non-empty p — one persist.
func (d *Device) WriteThrough(p []byte, off int) error { return d.WriteThroughGroup(p, off, 1) }

// WriteThroughGroup is WriteThrough of a write made of pieces back to back:
// p is their concatenation, stored whole under one persist, and it counts
// pieces writes, len(p) bytes and — for a non-empty p — one persist. An
// out-of-range p fails whole and counts nothing.
func (d *Device) WriteThroughGroup(p []byte, off, pieces int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	d.stats.Writes += uint64(pieces)
	d.stats.BytesWritten += uint64(len(p))
	if len(p) > 0 {
		d.touch(off, len(p))
		copy(d.image[off:], p)
		d.stats.Persists++
	}
	return nil
}

// ReadAt fills p from the image at off.
func (d *Device) ReadAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	copy(p, d.image[off:])
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(p))
	return nil
}

// ReadU64 is ReadAt of the big-endian word at off without the slice: one
// bounds check, one read of 8 bytes counted, and ErrOutOfRange itself on a
// word outside the device.
func (d *Device) ReadU64(off int) (uint64, error) {
	if off < 0 || off > len(d.image)-8 {
		return 0, ErrOutOfRange
	}
	d.stats.Reads++
	d.stats.BytesRead += 8
	return binary.BigEndian.Uint64(d.image[off:]), nil
}

// ReadU64s is ReadU64 of the len(dst) consecutive words from off into dst,
// counted as that many reads. A range that leaves the device reads word by
// word up to the first word outside it, counting each word read, and returns
// that word's error. An empty dst reads and counts nothing, and fails where
// ReadAt(nil, off) fails.
func (d *Device) ReadU64s(dst []uint64, off int) error {
	if len(dst) == 0 {
		return d.check(off, 0)
	}
	if off < 0 || off > len(d.image)-8*len(dst) {
		for i := range dst {
			v, err := d.ReadU64(off + 8*i)
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(d.image[off+8*i:])
	}
	d.stats.Reads += uint64(len(dst))
	d.stats.BytesRead += 8 * uint64(len(dst))
	return nil
}

// View is ReadAt without the copy: the same bounds check, the same Reads and
// BytesRead, and the n image bytes at off themselves (capacity n, so an
// append cannot write into the device). The slice is valid until the next
// write to those bytes or Release: compare it or copy it, never keep it.
func (d *Device) View(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(n)
	return d.image[off : off+n : off+n], nil
}

// WriteCost returns the modelled virtual-time cost of persisting n bytes:
// media latency plus serialization at the device bandwidth.
func (d *Device) WriteCost(n int) sim.Time {
	ser := sim.Time(float64(n) / d.cfg.BandwidthBps * 1e9)
	return d.cfg.WriteLatency + ser
}

// ReadCost returns the modelled cost of reading n bytes.
func (d *Device) ReadCost(n int) sim.Time {
	ser := sim.Time(float64(n) / d.cfg.BandwidthBps * 1e9)
	return d.cfg.ReadLatency + ser
}

// BDPBits computes a bandwidth-delay product in bits (Equations 1 and 2 of
// the paper): delay × bandwidth.
func BDPBits(delay sim.Time, bandwidthBitsPerSec float64) float64 {
	return float64(delay) / 1e9 * bandwidthBitsPerSec
}

// BDPLogBytes returns the PM capacity in bytes needed to hold all in-flight
// update requests: Equation 1 with the worst-case RTT.
func BDPLogBytes(maxRTT sim.Time, networkBitsPerSec float64) int {
	return int(BDPBits(maxRTT, networkBitsPerSec) / 8)
}

// BDPQueueBytes returns the SRAM log-queue size in bytes needed to hide the
// PM access latency: Equation 2.
func BDPQueueBytes(pmLatency sim.Time, networkBitsPerSec float64) int {
	return int(BDPBits(pmLatency, networkBitsPerSec) / 8)
}
