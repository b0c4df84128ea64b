// Package pmem simulates a byte-addressable persistent memory device.
//
// It stands in for the battery-backed DRAM / Optane DCPMM used by the PMNet
// paper (§V-A): a write is visible at once but only becomes durable after an
// explicit persist (or once the modelled media latency elapses, for the DMA
// queue in queue.go). A power failure discards everything that had not
// reached the persistence domain, which is exactly the property the PMNet
// recovery protocol depends on.
//
// The device keeps ONE image, the bytes a running program reads back, and a
// pre-image shadow of the lines written since they were last persisted: the
// first write to a clean line saves that line, a persist drops the saved
// line, a power failure writes the saved lines back. Host memory and host
// time therefore follow the capacity once and the dirty set otherwise.
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

// Device is a simulated PM DIMM: one flat image, which is what a running
// program reads back, plus the pre-image of every dirty line — a line written
// since it was last persisted. The invariants:
//
//   - a line is dirty exactly when it owns one saved pre-image (slot[line]
//     names it; the entry is meaningless for a clean line, and the index is
//     allocated by the first save, so a device that is only ever written
//     through has none);
//   - the image with each dirty line replaced by its pre-image is the durable
//     state, so PowerFail is that substitution and Persist only forgets
//     pre-images: neither copies a clean line.
//
// WriteAt saves the pre-image of each clean line it touches and marks it
// dirty; Persist makes the lines it covers clean; PowerFail rolls every dirty
// line back. The slot store grows to the largest number of lines that were
// dirty at once and is reused from then on.
//
// Device is not safe for concurrent use; in this codebase every device is
// owned by a single simulated component on the single-threaded virtual clock.
type Device struct {
	cfg        Config
	image      []byte
	dirty      []uint64 // bitset, one bit per line
	dirtyLines int      // population count of dirty, kept incrementally
	slot       []uint32 // per line: index of its pre-image in pre, valid while dirty; nil until the first save
	pre        []byte   // pre-image slots, LineSize bytes each
	freeSlots  []uint32 // slots of pre not owned by a dirty line
	touched    []uint64 // bitset, one bit per chunk of the image ever written
	stats      Stats
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

// lines is the number of lines of the capacity, the last one possibly short.
func (c Config) lines() int { return (c.Capacity + c.LineSize - 1) / c.LineSize }

// NewDevice creates a zeroed device. It panics on a non-positive capacity or
// line size: those are construction-time programming errors.
func NewDevice(cfg Config) *Device {
	if cfg.Capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	if cfg.LineSize <= 0 {
		cfg.LineSize = 256
	}
	return &Device{
		cfg:     cfg,
		image:   newImage(cfg.Capacity),
		dirty:   make([]uint64, (cfg.lines()+63)/64),
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

// lineBytes returns the image bytes of a line; the last line is short when
// the capacity is not a multiple of the line size.
func (d *Device) lineBytes(line int) []byte {
	lo := line * d.cfg.LineSize
	hi := lo + d.cfg.LineSize
	if hi > len(d.image) {
		hi = len(d.image)
	}
	return d.image[lo:hi]
}

// preImage returns the slot s of the pre-image store.
func (d *Device) preImage(s uint32) []byte {
	lo := int(s) * d.cfg.LineSize
	return d.pre[lo : lo+d.cfg.LineSize]
}

// WriteAt stores p into the image at off and marks the touched lines dirty,
// saving the pre-image of each line that was clean. The data is NOT durable
// until Persist covers it.
func (d *Device) WriteAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	if len(p) > 0 {
		d.touch(off, len(p))
		last := (off + len(p) - 1) / d.cfg.LineSize
		for line := off / d.cfg.LineSize; line <= last; line++ {
			if bit := uint64(1) << (uint(line) & 63); d.dirty[line>>6]&bit == 0 {
				d.dirty[line>>6] |= bit
				d.dirtyLines++
				d.save(line)
			}
		}
		copy(d.image[off:], p)
	}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(p))
	return nil
}

// save copies a line that is about to become dirty into a free pre-image
// slot, growing the store when every slot is owned.
func (d *Device) save(line int) {
	if d.slot == nil {
		d.slot = make([]uint32, d.cfg.lines())
	}
	var s uint32
	if k := len(d.freeSlots) - 1; k >= 0 {
		s = d.freeSlots[k]
		d.freeSlots = d.freeSlots[:k]
	} else {
		s = uint32(len(d.pre) / d.cfg.LineSize)
		d.pre = append(d.pre, make([]byte, d.cfg.LineSize)...)
	}
	d.slot[line] = s
	copy(d.preImage(s), d.lineBytes(line))
}

// clean clears the dirty lines of word w selected by mask and frees their
// pre-image slots: whatever the image holds there is now the durable state.
func (d *Device) clean(w int, mask uint64) {
	word := d.dirty[w] & mask
	d.dirty[w] &^= word
	d.dirtyLines -= bits.OnesCount64(word)
	for ; word != 0; word &= word - 1 {
		d.freeSlots = append(d.freeSlots, d.slot[w<<6+bits.TrailingZeros64(word)])
	}
}

// cleanRange is clean over the lines of the non-empty range [off, off+n). A
// device with no dirty line has nothing to clean, and skips the bitset.
func (d *Device) cleanRange(off, n int) {
	if d.dirtyLines == 0 {
		return
	}
	first := off / d.cfg.LineSize
	last := (off + n - 1) / d.cfg.LineSize
	for w := first >> 6; w <= last>>6; w++ {
		d.clean(w, rangeMask(w, first, last))
	}
}

// WriteThrough is WriteAt followed by Persist of the same range, for a write
// that no crash point separates from its barrier (the log queue's write
// completion, every write of a pmobj commit): nothing can fail between the
// two on the single-threaded virtual clock, so the bytes go straight into the
// image, no pre-image is saved, and the lines the range touches end clean
// exactly as the pair leaves them. It counts what the pair counts; like the
// pair, an empty write counts no persist.
func (d *Device) WriteThrough(p []byte, off int) error { return d.WriteThroughGroup(p, off, 1) }

// WriteThroughGroup is WriteThrough of a write made of pieces back to back:
// p is their concatenation, so it leaves what WriteAt of each piece followed
// by one Persist of their union leaves, and counts pieces writes, len(p)
// bytes and — for a non-empty p — one persist. An out-of-range p fails whole
// and counts nothing.
func (d *Device) WriteThroughGroup(p []byte, off, pieces int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	d.stats.Writes += uint64(pieces)
	d.stats.BytesWritten += uint64(len(p))
	if len(p) > 0 {
		d.touch(off, len(p))
		copy(d.image[off:], p)
		d.cleanRange(off, len(p))
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
// that word's error.
func (d *Device) ReadU64s(dst []uint64, off int) error {
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
// WriteAt or PowerFail: compare it or copy it, never keep it.
func (d *Device) View(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(n)
	return d.image[off : off+n : off+n], nil
}

// Persist makes the range [off, off+n) durable by dropping the pre-image of
// every dirty line it covers. This models clwb/sfence (or the DMA engine's
// write completion) at line granularity: persisting any byte of a line
// persists the whole line, as on real hardware.
func (d *Device) Persist(off, n int) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	d.cleanRange(off, n)
	d.stats.Persists++
	return nil
}

// rangeMask returns the bits of dirty word w that fall inside the line range
// [first, last].
func rangeMask(w, first, last int) uint64 {
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
	if err := d.Persist(0, len(d.image)); err != nil {
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
		if d.dirty[w]&rangeMask(w, first, last) != 0 {
			return false
		}
	}
	return true
}

// DirtyLines returns how many lines are dirty (written but not yet durable).
// Kept incrementally so the observability gauge can sample it on the hot
// path without an O(capacity/line) bitset scan.
func (d *Device) DirtyLines() int { return d.dirtyLines }

// PowerFail simulates an abrupt power loss: every dirty line reverts to its
// pre-image and becomes clean. The device remains usable afterwards
// (intermittent-failure model, §IV-E1).
func (d *Device) PowerFail() {
	for w, word := range d.dirty {
		if word == 0 {
			continue
		}
		for rest := word; rest != 0; rest &= rest - 1 {
			line := w<<6 + bits.TrailingZeros64(rest)
			copy(d.lineBytes(line), d.preImage(d.slot[line]))
		}
		d.clean(w, word)
	}
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
