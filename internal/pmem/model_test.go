package pmem

// The reference model: refDevice is the two-image device this package shipped
// until the pre-image shadow replaced it, kept verbatim as the definition of
// what every access must do. The fuzz target and the queue property test step
// both side by side and compare everything observable after every step.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"pmnet/internal/sim"
)

// refDevice maintains two images: the volatile view (what a running program
// reads back) and the persistent view (what survives power failure). WriteAt
// updates the volatile view and marks lines dirty; Persist copies dirty lines
// into the persistent image; PowerFail rolls the volatile view back to the
// persistent image.
type refDevice struct {
	cfg        Config
	volatile   []byte
	durable    []byte
	dirty      []uint64 // bitset, one bit per line
	dirtyLines int      // population count of dirty, kept incrementally
	stats      Stats
}

func newRefDevice(cfg Config) *refDevice {
	if cfg.Capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	if cfg.LineSize <= 0 {
		cfg.LineSize = 256
	}
	lines := (cfg.Capacity + cfg.LineSize - 1) / cfg.LineSize
	return &refDevice{
		cfg:      cfg,
		volatile: make([]byte, cfg.Capacity),
		durable:  make([]byte, cfg.Capacity),
		dirty:    make([]uint64, (lines+63)/64),
	}
}

func (d *refDevice) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(d.volatile) {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, off, off+n, len(d.volatile))
	}
	return nil
}

func (d *refDevice) WriteAt(p []byte, off int) error {
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

func (d *refDevice) ReadAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	copy(p, d.volatile[off:])
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(p))
	return nil
}

func (d *refDevice) View(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(n)
	return d.volatile[off : off+n : off+n], nil
}

func (d *refDevice) Persist(off, n int) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first := off / d.cfg.LineSize
	last := (off + n - 1) / d.cfg.LineSize
	for w := first >> 6; w <= last>>6; w++ {
		word := d.dirty[w] & rangeMask(w, first, last)
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

func (d *refDevice) PersistAll() {
	if err := d.Persist(0, len(d.volatile)); err != nil {
		panic("pmem: persist all: " + err.Error())
	}
}

func (d *refDevice) Persisted(off, n int) bool {
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

func (d *refDevice) DirtyLines() int { return d.dirtyLines }

func (d *refDevice) PowerFail() {
	copy(d.volatile, d.durable)
	for i := range d.dirty {
		d.dirty[i] = 0
	}
	d.dirtyLines = 0
	d.stats.PowerFailures++
}

// pair steps a Device and the model together.
type pair struct {
	t    testing.TB
	d    *Device
	ref  *refDevice
	r    *sim.Rand // picks the ranges Persisted is asked about
	peak int       // most lines dirty at once
}

func newPair(t testing.TB, cfg Config, seed uint64) *pair {
	return &pair{t: t, d: NewDevice(cfg), ref: newRefDevice(cfg), r: sim.NewRand(seed)}
}

// errs fails unless both sides returned the same error (or none).
func (p *pair) errs(step string, got, want error) {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		p.t.Fatalf("%s: error %v, model %v", step, got, want)
	}
}

// agree compares everything observable, then the shadow's own invariants.
func (p *pair) agree(step string) {
	p.t.Helper()
	d, ref := p.d, p.ref
	if !bytes.Equal(d.image, ref.volatile) {
		p.t.Fatalf("%s: image differs from the model's volatile view", step)
	}
	if d.Stats() != ref.stats {
		p.t.Fatalf("%s: stats %+v, model %+v", step, d.Stats(), ref.stats)
	}
	if d.DirtyLines() != ref.DirtyLines() {
		p.t.Fatalf("%s: DirtyLines %d, model %d", step, d.DirtyLines(), ref.DirtyLines())
	}
	for i := 0; i < 4; i++ {
		off := p.r.Intn(d.Len()+3) - 1
		n := p.r.Intn(3*d.cfg.LineSize) - 1
		if got, want := d.Persisted(off, n), ref.Persisted(off, n); got != want {
			p.t.Fatalf("%s: Persisted(%d, %d) = %v, model %v", step, off, n, got, want)
		}
	}
	// Image minus dirty lines plus their pre-images is the durable state.
	durable := append([]byte(nil), d.image...)
	owned := make(map[uint32]bool)
	for w, word := range d.dirty {
		for ; word != 0; word &= word - 1 {
			line := w<<6 + bits.TrailingZeros64(word)
			s := d.slot[line]
			if owned[s] {
				p.t.Fatalf("%s: pre-image slot %d owned twice", step, s)
			}
			owned[s] = true
			copy(durable[line*d.cfg.LineSize:], d.preImage(s)[:len(d.lineBytes(line))])
		}
	}
	if !bytes.Equal(durable, ref.durable) {
		p.t.Fatalf("%s: durable state differs from the model's persistent image", step)
	}
	// The per-line slot index exists exactly when a pre-image was ever
	// saved: a device only written through has none.
	if (d.slot == nil) != (len(d.pre) == 0) {
		p.t.Fatalf("%s: slot index allocated %v with %d bytes of pre-images", step, d.slot != nil, len(d.pre))
	}
	// A line is dirty exactly when it owns a slot, and the store never
	// outgrows the most lines that were dirty at once.
	if d.dirtyLines > p.peak {
		p.peak = d.dirtyLines
	}
	slots := len(d.pre) / d.cfg.LineSize
	if len(owned) != d.dirtyLines || len(owned)+len(d.freeSlots) != slots || slots > p.peak {
		p.t.Fatalf("%s: %d slots (%d owned, %d free) for %d dirty lines, peak %d",
			step, slots, len(owned), len(d.freeSlots), d.dirtyLines, p.peak)
	}
}

// The fuzz input: a 3-byte header (capacity, line size) and 6-byte steps
// {op, off, n, fill}. Offsets and lengths are folded into a window slightly
// wider than the device so that valid, boundary and out-of-range accesses
// all stay likely under mutation.
const (
	opWrite = iota
	opPersist
	opPersistAll
	opPowerFail
	opRead
	opView
	opWriteThrough
	opWriteThroughGroup // fill%4 + 1 pieces
	opReadU64
	opReadU64s // n%9 words
	nOps
)

var fuzzLineSizes = [...]int{8, 24, 64, 256}

const (
	fuzzMaxCap = 4096
	fuzzMaxLen = 1024
	fuzzSteps  = 256 // steps played per input: every step costs a full comparison
	fuzzMargin = 8   // how far outside [0, Capacity] an offset may fall
)

// prog builds a fuzz input from readable steps.
type prog struct{ b []byte }

func newProg(capacity, lineSize int) *prog {
	sel := 0
	for fuzzLineSizes[sel] != lineSize {
		sel++
	}
	b := binary.BigEndian.AppendUint16(nil, uint16(capacity-1))
	return &prog{b: append(b, byte(sel))}
}

func (p *prog) step(op, off, n int, fill byte) *prog {
	p.b = append(p.b, byte(op))
	p.b = binary.BigEndian.AppendUint16(p.b, uint16(off+fuzzMargin))
	p.b = binary.BigEndian.AppendUint16(p.b, uint16(n+1))
	p.b = append(p.b, fill)
	return p
}

func (p *prog) write(off, n int, fill byte) *prog { return p.step(opWrite, off, n, fill) }
func (p *prog) persist(off, n int) *prog          { return p.step(opPersist, off, n, 0) }
func (p *prog) persistAll() *prog                 { return p.step(opPersistAll, 0, 0, 0) }
func (p *prog) powerFail() *prog                  { return p.step(opPowerFail, 0, 0, 0) }
func (p *prog) read(off, n int) *prog             { return p.step(opRead, off, n, 0) }
func (p *prog) view(off, n int) *prog             { return p.step(opView, off, n, 0) }
func (p *prog) writeThrough(off, n int, fill byte) *prog {
	return p.step(opWriteThrough, off, n, fill)
}
func (p *prog) writeThroughGroup(off, n, pieces int) *prog {
	return p.step(opWriteThroughGroup, off, n, byte(pieces-1))
}
func (p *prog) readU64(off int) *prog     { return p.step(opReadU64, off, 0, 0) }
func (p *prog) readU64s(off, k int) *prog { return p.step(opReadU64s, off, k, 0) }

// writeThroughGroup is what WriteThroughGroup must leave: the range
// checked whole, then WriteAt of each piece — p cut into pieces parts, the
// last taking the remainder, so short inputs make empty pieces — and one
// Persist of the union.
func (d *refDevice) writeThroughGroup(p []byte, off, pieces int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	at := 0
	for i := 0; i < pieces; i++ {
		n := len(p) / pieces
		if i == pieces-1 {
			n = len(p) - at
		}
		if err := d.WriteAt(p[at:at+n], off+at); err != nil {
			return err
		}
		at += n
	}
	return d.Persist(off, len(p))
}

// readU64s is ReadU64s on the model: ReadAt of each word until one fails.
func (d *refDevice) readU64s(dst []uint64, off int) error {
	var w [8]byte
	for i := range dst {
		if err := d.ReadAt(w[:], off+8*i); err != nil {
			return err
		}
		dst[i] = binary.BigEndian.Uint64(w[:])
	}
	return nil
}

// sameRangeErr fails unless both sides failed or neither did, a failure
// being ErrOutOfRange: ReadU64 returns it bare, the model's ReadAt wraps it.
func (p *pair) sameRangeErr(step string, got, want error) {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && (!errors.Is(got, ErrOutOfRange) || !errors.Is(want, ErrOutOfRange))) {
		p.t.Fatalf("%s: error %v, model %v", step, got, want)
	}
}

func FuzzDeviceMatchesTwoImageModel(f *testing.F) {
	// A capacity that is not a multiple of the line size: the last line is
	// short, written, persisted in part, rewritten and lost.
	f.Add(newProg(1000, 256).write(990, 10, 1).persist(999, 1).write(760, 240, 2).
		powerFail().write(768, 232, 3).persistAll().view(768, 232).b)
	// An empty write at off == Capacity counts a write, dirties nothing, and
	// the empty persist there counts nothing.
	f.Add(newProg(512, 64).write(512, 0, 0).persist(512, 0).read(512, 0).view(512, 0).b)
	// Two unpersisted writes to one line, then a persist of part of it: the
	// line goes durable whole, the neighbour it shares a write with does not.
	f.Add(newProg(2048, 256).write(10, 20, 1).write(100, 200, 2).persist(0, 1).powerFail().b)
	// Dirty again after a persist, then power failure: the line reverts to
	// what was persisted, not to zero.
	f.Add(newProg(2048, 64).write(64, 64, 1).persist(64, 64).write(70, 8, 2).write(96, 40, 3).
		powerFail().read(64, 64).b)
	// Out-of-range calls of every kind leave no trace but their error.
	f.Add(newProg(256, 8).write(-1, 4, 1).write(250, 7, 1).persist(-1, 2).persist(0, -1).
		persist(255, 2).read(256, 1).view(-1, 1).view(0, 257).write(250, 6, 9).b)
	// Lines across several bitset words, persisted by a range that starts and
	// ends inside words.
	f.Add(newProg(4096, 8).write(0, 1000, 1).write(3000, 1000, 2).persist(500, 3000).
		powerFail().persistAll().b)
	// Write-throughs that straddle a line boundary over a dirty neighbour and
	// end in the short last line, a group whose pieces are uneven, empty and
	// out of range, and a power failure after them: what survives is what
	// WriteAt + Persist of each range would have left.
	f.Add(newProg(1000, 64).write(100, 40, 1).writeThrough(120, 20, 2).writeThrough(940, 60, 3).
		writeThroughGroup(500, 50, 3).writeThroughGroup(990, 10, 4).writeThroughGroup(2, 2, 4).
		writeThroughGroup(995, 6, 2).writeThrough(1000, 0, 5).write(960, 8, 6).powerFail().b)
	// Word reads across a line boundary and in the short last line, one that
	// ends exactly at the capacity, one a byte past it, and batches that run
	// off either end: a batch counts every word it read before the one that
	// failed.
	f.Add(newProg(1000, 24).writeThrough(0, 1000, 7).readU64(20).readU64(992).readU64(993).
		readU64(-1).readU64s(40, 4).readU64s(976, 3).readU64s(984, 4).readU64s(-8, 2).
		readU64s(1000, 0).b)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := DefaultConfig(1 + int(binary.BigEndian.Uint16(data))%fuzzMaxCap)
		cfg.LineSize = fuzzLineSizes[int(data[2])%len(fuzzLineSizes)]
		p := newPair(t, cfg, 1)
		p.agree("new device")
		for i, steps := 0, data[3:]; len(steps) >= 6 && i < fuzzSteps; i, steps = i+1, steps[6:] {
			off := int(binary.BigEndian.Uint16(steps[1:]))%(cfg.Capacity+2*fuzzMargin+1) - fuzzMargin
			n := int(binary.BigEndian.Uint16(steps[3:]))%fuzzMaxLen - 1
			step := fmt.Sprintf("step %d", i)
			switch steps[0] % nOps {
			case opWrite:
				if n < 0 {
					n = 0
				}
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = steps[5] + byte(j)*7
				}
				step += fmt.Sprintf(" WriteAt(%d bytes, %d)", n, off)
				p.errs(step, p.d.WriteAt(buf, off), p.ref.WriteAt(buf, off))
			case opPersist:
				step += fmt.Sprintf(" Persist(%d, %d)", off, n)
				p.errs(step, p.d.Persist(off, n), p.ref.Persist(off, n))
			case opPersistAll:
				step += " PersistAll"
				p.d.PersistAll()
				p.ref.PersistAll()
			case opPowerFail:
				step += " PowerFail"
				p.d.PowerFail()
				p.ref.PowerFail()
			case opRead:
				if n < 0 {
					n = 0
				}
				step += fmt.Sprintf(" ReadAt(%d bytes, %d)", n, off)
				got, want := make([]byte, n), make([]byte, n)
				p.errs(step, p.d.ReadAt(got, off), p.ref.ReadAt(want, off))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: read %x, model %x", step, got, want)
				}
			case opView:
				step += fmt.Sprintf(" View(%d, %d)", off, n)
				got, err := p.d.View(off, n)
				want, refErr := p.ref.View(off, n)
				p.errs(step, err, refErr)
				if !bytes.Equal(got, want) || cap(got) != cap(want) {
					t.Fatalf("%s: view %x cap %d, model %x cap %d", step, got, cap(got), want, cap(want))
				}
			case opWriteThrough, opWriteThroughGroup:
				if n < 0 {
					n = 0
				}
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = steps[5] + byte(j)*7
				}
				pieces := 1
				if steps[0]%nOps == opWriteThroughGroup {
					pieces += int(steps[5]) % 4
				}
				step += fmt.Sprintf(" WriteThroughGroup(%d bytes, %d, %d pieces)", n, off, pieces)
				var err error
				if pieces == 1 {
					err = p.d.WriteThrough(buf, off)
				} else {
					err = p.d.WriteThroughGroup(buf, off, pieces)
				}
				p.errs(step, err, p.ref.writeThroughGroup(buf, off, pieces))
			case opReadU64:
				step += fmt.Sprintf(" ReadU64(%d)", off)
				got, err := p.d.ReadU64(off)
				want := make([]uint64, 1)
				p.sameRangeErr(step, err, p.ref.readU64s(want, off))
				if got != want[0] {
					t.Fatalf("%s: read %#x, model %#x", step, got, want[0])
				}
			case opReadU64s:
				k := max(n, 0) % 9
				step += fmt.Sprintf(" ReadU64s(%d words, %d)", k, off)
				got, want := make([]uint64, k), make([]uint64, k)
				p.sameRangeErr(step, p.d.ReadU64s(got, off), p.ref.readU64s(want, off))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: read %#x, model %#x", step, got, want)
				}
			}
			p.agree(step)
		}
	})
}

// TestQueueWriteMatchesWriteThenPersist pins WriteThrough: every queued write
// that retires must leave the device as the model's WriteAt followed by
// Persist of the same range leaves it — also when the range covers lines a
// plain WriteAt left dirty, when the write is empty, and when the queue and
// the device lose power with writes in flight.
func TestQueueWriteMatchesWriteThenPersist(t *testing.T) {
	const capacity = 8000 // not a multiple of the line size
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRand(seed)
		eng := sim.NewEngine()
		p := newPair(t, DefaultConfig(capacity), seed)
		q := NewQueue(eng, p.d, 4096)
		retired, lost := 0, 0
		for i := 0; i < 400; i++ {
			step := fmt.Sprintf("seed %d step %d", seed, i)
			switch k := r.Intn(10); {
			case k < 5:
				n := r.Intn(700)
				if r.Intn(8) == 0 {
					n = 0
				}
				off := r.Intn(capacity - n + 1)
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(r.Uint64())
				}
				model := append([]byte(nil), data...) // TryWrite must have staged its own copy
				accepted := q.TryWrite(off, data, func() {
					retired++
					p.errs(step+" retire", nil, p.ref.WriteAt(model, off))
					p.errs(step+" retire", nil, p.ref.Persist(off, n))
					p.agree(step + " retire")
				})
				if accepted {
					clear(data)
				}
			case k < 7: // a plain write the queue's range may later cover
				n := 1 + r.Intn(300)
				off := r.Intn(capacity - n + 1)
				data := bytes.Repeat([]byte{byte(i)}, n)
				p.errs(step, p.d.WriteAt(data, off), p.ref.WriteAt(data, off))
			case k < 9:
				eng.RunUntil(eng.Now() + sim.Time(r.Intn(600)))
			default:
				lost += q.InFlight()
				q.PowerFail()
				p.d.PowerFail()
				p.ref.PowerFail()
			}
			p.agree(step)
		}
		eng.Run()
		p.agree(fmt.Sprintf("seed %d drained", seed))
		if retired == 0 || lost == 0 {
			t.Fatalf("seed %d: %d writes retired, %d lost in flight: the script must see both", seed, retired, lost)
		}
	}
}
