// Package pmem simulates a byte-addressable persistent memory device.
//
// It stands in for the battery-backed DRAM / Optane DCPMM used by the PMNet
// paper (§V-A): writes land in a volatile buffer first and only become
// durable after an explicit persist (or the modelled media latency elapses,
// for the DMA queue in queue.go). A power failure discards everything that
// had not reached the persistence domain, which is exactly the property the
// PMNet recovery protocol depends on.
package pmem

import (
	"errors"
	"fmt"
	"math/bits"

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
	LineSize     int      // persistence granularity in bytes
}

// DefaultConfig returns the paper-calibrated device configuration with the
// given capacity.
func DefaultConfig(capacity int) Config {
	return Config{
		Capacity:     capacity,
		WriteLatency: 273,   // ns, §V-A
		ReadLatency:  170,   // ns, Optane-class read
		BandwidthBps: 2.5e9, // 2.5 GB/s, §VII
		LineSize:     256,   // Optane internal write granularity
	}
}

// Errors returned by Device operations.
var (
	ErrOutOfRange = errors.New("pmem: access out of range")
)

// Stats counts device activity for reporting and tests.
type Stats struct {
	Writes        uint64
	BytesWritten  uint64
	Reads         uint64
	BytesRead     uint64
	Persists      uint64
	PowerFailures uint64
}

// Device is a simulated PM DIMM. It maintains two images: the volatile view
// (what a running program reads back) and the persistent view (what survives
// power failure). WriteAt updates the volatile view and marks lines dirty;
// Persist copies dirty lines into the persistent image; PowerFail rolls the
// volatile view back to the persistent image.
//
// Device is not safe for concurrent use; in this codebase every device is
// owned by a single simulated component on the single-threaded virtual clock.
type Device struct {
	cfg        Config
	volatile   []byte
	durable    []byte
	dirty      []uint64 // bitset, one bit per line
	dirtyLines int      // population count of dirty, kept incrementally
	stats      Stats
}

// NewDevice creates a zeroed device. It panics on a non-positive capacity or
// line size: those are construction-time programming errors.
func NewDevice(cfg Config) *Device {
	if cfg.Capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	if cfg.LineSize <= 0 {
		cfg.LineSize = 256
	}
	lines := (cfg.Capacity + cfg.LineSize - 1) / cfg.LineSize
	return &Device{
		cfg:      cfg,
		volatile: make([]byte, cfg.Capacity),
		durable:  make([]byte, cfg.Capacity),
		dirty:    make([]uint64, (lines+63)/64),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Len returns the device capacity in bytes.
func (d *Device) Len() int { return len(d.volatile) }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(d.volatile) {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, off, off+n, len(d.volatile))
	}
	return nil
}

// WriteAt stores p into the volatile view at off and marks the touched lines
// dirty. The data is NOT durable until Persist covers it.
func (d *Device) WriteAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	copy(d.volatile[off:], p)
	for line := off / d.cfg.LineSize; line <= (off+len(p)-1)/d.cfg.LineSize && len(p) > 0; line++ {
		if bit := uint64(1) << (uint(line) & 63); d.dirty[line>>6]&bit == 0 {
			d.dirty[line>>6] |= bit
			d.dirtyLines++
		}
	}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(p))
	return nil
}

// ReadAt fills p from the volatile view at off.
func (d *Device) ReadAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	copy(p, d.volatile[off:])
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(p))
	return nil
}

// View is ReadAt without the copy: the same bounds check, the same Reads and
// BytesRead, and the n volatile bytes at off themselves (capacity n, so an
// append cannot write into the device). The slice is valid until the next
// WriteAt or PowerFail: compare it or copy it, never keep it.
func (d *Device) View(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(n)
	return d.volatile[off : off+n : off+n], nil
}

// Persist makes the range [off, off+n) durable, copying any dirty lines it
// covers into the persistent image. This models clwb/sfence (or the DMA
// engine's write completion) at line granularity: persisting any byte of a
// line persists the whole line, as on real hardware.
func (d *Device) Persist(off, n int) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first := off / d.cfg.LineSize
	last := (off + n - 1) / d.cfg.LineSize
	for w := first >> 6; w <= last>>6; w++ {
		word := d.dirty[w] & d.rangeMask(w, first, last)
		d.dirty[w] &^= word
		d.dirtyLines -= bits.OnesCount64(word)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			lo := (w<<6 + b) * d.cfg.LineSize
			hi := lo + d.cfg.LineSize
			if hi > len(d.volatile) {
				hi = len(d.volatile)
			}
			copy(d.durable[lo:hi], d.volatile[lo:hi])
		}
	}
	d.stats.Persists++
	return nil
}

// rangeMask returns the bits of dirty word w that fall inside the line range
// [first, last].
func (d *Device) rangeMask(w, first, last int) uint64 {
	mask := ^uint64(0)
	if w == first>>6 {
		mask &= ^uint64(0) << (uint(first) & 63)
	}
	if w == last>>6 {
		if r := uint(last) & 63; r != 63 {
			mask &= 1<<(r+1) - 1
		}
	}
	return mask
}

// PersistAll flushes every dirty line. The whole-device range can only fail
// on a corrupted Device, so rather than silently dropping the barrier — the
// exact bug class persistcover exists to catch — a failure panics.
func (d *Device) PersistAll() {
	if err := d.Persist(0, len(d.volatile)); err != nil {
		panic("pmem: persist all: " + err.Error())
	}
}

// Persisted reports whether the whole range [off, off+n) is durable (no
// dirty line overlaps it).
func (d *Device) Persisted(off, n int) bool {
	if d.check(off, n) != nil || n == 0 {
		return n == 0
	}
	first := off / d.cfg.LineSize
	last := (off + n - 1) / d.cfg.LineSize
	for w := first >> 6; w <= last>>6; w++ {
		if d.dirty[w]&d.rangeMask(w, first, last) != 0 {
			return false
		}
	}
	return true
}

// DirtyLines returns how many lines are dirty (written but not yet durable).
// Kept incrementally so the observability gauge can sample it on the hot
// path without an O(capacity/line) bitset scan.
func (d *Device) DirtyLines() int { return d.dirtyLines }

// PowerFail simulates an abrupt power loss: the volatile view reverts to the
// persistent image and all dirty flags clear. The device remains usable
// afterwards (intermittent-failure model, §IV-E1).
func (d *Device) PowerFail() {
	copy(d.volatile, d.durable)
	for i := range d.dirty {
		d.dirty[i] = 0
	}
	d.dirtyLines = 0
	d.stats.PowerFailures++
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
