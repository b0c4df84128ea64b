package pmem

// The reference model: a device is a plain byte slice and a Stats value.
// Every write is durable on return, so there is no second image to keep. The
// fuzz target and the queue property test step a Device beside the model and
// compare everything observable after every step.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pmnet/internal/sim"
)

// model is what a Device must behave as: img is nil once released.
type model struct {
	img   []byte
	stats Stats
}

func newModel(capacity int) *model { return &model{img: make([]byte, capacity)} }

// in reports whether [off, off+n) lies inside the live device.
func (m *model) in(off, n int) bool {
	return m.img != nil && off >= 0 && n >= 0 && off+n <= len(m.img)
}

// writeThroughGroup stores p whole, counting pieces writes, len(p) bytes and
// one persist when p is not empty; out of range it stores and counts nothing.
func (m *model) writeThroughGroup(p []byte, off, pieces int) bool {
	if !m.in(off, len(p)) {
		return false
	}
	m.stats.Writes += uint64(pieces)
	m.stats.BytesWritten += uint64(len(p))
	if len(p) > 0 {
		copy(m.img[off:], p)
		m.stats.Persists++
	}
	return true
}

func (m *model) readAt(p []byte, off int) bool {
	if !m.in(off, len(p)) {
		return false
	}
	copy(p, m.img[off:])
	m.stats.Reads++
	m.stats.BytesRead += uint64(len(p))
	return true
}

func (m *model) view(off, n int) ([]byte, bool) {
	if !m.in(off, n) {
		return nil, false
	}
	m.stats.Reads++
	m.stats.BytesRead += uint64(n)
	return m.img[off : off+n : off+n], true
}

// readU64s reads word by word, counting each, up to the first word outside
// the device; an empty dst counts nothing and fails where an empty readAt
// does.
func (m *model) readU64s(dst []uint64, off int) bool {
	if len(dst) == 0 {
		return m.in(off, 0)
	}
	for i := range dst {
		if !m.in(off+8*i, 8) {
			return false
		}
		dst[i] = binary.BigEndian.Uint64(m.img[off+8*i:])
		m.stats.Reads++
		m.stats.BytesRead += 8
	}
	return true
}

// pair steps a Device and the model together.
type pair struct {
	t testing.TB
	d *Device
	m *model
}

func newPair(t testing.TB, capacity int) *pair {
	return &pair{t: t, d: NewDevice(DefaultConfig(capacity)), m: newModel(capacity)}
}

// errs fails unless the device returned ErrOutOfRange exactly where the model
// refused the access, and no error elsewhere.
func (p *pair) errs(step string, err error, ok bool) {
	p.t.Helper()
	if ok != (err == nil) || (err != nil && !errors.Is(err, ErrOutOfRange)) {
		p.t.Fatalf("%s: error %v, model in range %v", step, err, ok)
	}
}

// agree compares everything observable: the image, its length and the
// counters.
func (p *pair) agree(step string) {
	p.t.Helper()
	if !bytes.Equal(p.d.image, p.m.img) {
		p.t.Fatalf("%s: image differs from the model's bytes", step)
	}
	if p.d.Len() != len(p.m.img) {
		p.t.Fatalf("%s: Len %d, model %d", step, p.d.Len(), len(p.m.img))
	}
	if p.d.Stats() != p.m.stats {
		p.t.Fatalf("%s: stats %+v, model %+v", step, p.d.Stats(), p.m.stats)
	}
}

// The fuzz input: a 2-byte capacity and 6-byte steps {op, off, n, fill}.
// Offsets and lengths are folded into a window slightly wider than the device
// so that valid, boundary and out-of-range accesses all stay likely under
// mutation.
const (
	opWriteThrough      = iota
	opWriteThroughGroup // fill%4 + 1 pieces
	opRead
	opView
	opReadU64
	opReadU64s // n%9 words
	opRelease  // on a released device: release again, then draw a new one
	nOps
)

const (
	fuzzMaxCap = 4096
	fuzzMaxLen = 1024
	fuzzSteps  = 256 // steps played per input: every step costs a full comparison
	fuzzMargin = 8   // how far outside [0, Capacity] an offset may fall
)

// prog builds a fuzz input from readable steps.
type prog struct{ b []byte }

func newProg(capacity int) *prog {
	return &prog{b: binary.BigEndian.AppendUint16(nil, uint16(capacity-1))}
}

func (p *prog) step(op, off, n int, fill byte) *prog {
	p.b = append(p.b, byte(op))
	p.b = binary.BigEndian.AppendUint16(p.b, uint16(off+fuzzMargin))
	p.b = binary.BigEndian.AppendUint16(p.b, uint16(n+1))
	p.b = append(p.b, fill)
	return p
}

func (p *prog) writeThrough(off, n int, fill byte) *prog {
	return p.step(opWriteThrough, off, n, fill)
}
func (p *prog) writeThroughGroup(off, n, pieces int) *prog {
	return p.step(opWriteThroughGroup, off, n, byte(pieces-1))
}
func (p *prog) read(off, n int) *prog     { return p.step(opRead, off, n, 0) }
func (p *prog) view(off, n int) *prog     { return p.step(opView, off, n, 0) }
func (p *prog) readU64(off int) *prog     { return p.step(opReadU64, off, 0, 0) }
func (p *prog) readU64s(off, k int) *prog { return p.step(opReadU64s, off, k, 0) }
func (p *prog) release() *prog            { return p.step(opRelease, 0, 0, 0) }

func FuzzDeviceMatchesBytes(f *testing.F) {
	// A capacity that is not a power of two: writes that end at its last
	// byte, overlap each other and are read back.
	f.Add(newProg(1000).writeThrough(990, 10, 1).writeThrough(760, 240, 2).writeThrough(768, 232, 3).
		view(768, 232).read(760, 240).b)
	// An empty write at off == Capacity counts a write and no persist, and
	// the empty reads there succeed.
	f.Add(newProg(512).writeThrough(512, 0, 0).read(512, 0).view(512, 0).readU64s(512, 0).b)
	// Out-of-range calls of every kind leave no trace but their error.
	f.Add(newProg(256).writeThrough(-1, 4, 1).writeThrough(250, 7, 1).read(256, 1).view(-1, 1).
		view(0, 257).writeThroughGroup(250, 7, 3).writeThrough(250, 6, 9).b)
	// Write-throughs that end at the last byte, a group whose pieces are
	// uneven, empty and out of range, and an empty write at the end.
	f.Add(newProg(1000).writeThrough(120, 20, 2).writeThrough(940, 60, 3).writeThroughGroup(500, 50, 3).
		writeThroughGroup(990, 10, 4).writeThroughGroup(2, 2, 4).writeThroughGroup(995, 6, 2).
		writeThrough(1000, 0, 5).b)
	// Word reads inside the device, one that ends exactly at the capacity,
	// one a byte past it, and batches that run off either end: a
	// batch counts every word it read before the one that failed.
	f.Add(newProg(1000).writeThrough(0, 1000, 7).readU64(20).readU64(992).readU64(993).
		readU64(-1).readU64s(40, 4).readU64s(976, 3).readU64s(984, 4).readU64s(-8, 2).
		readU64s(1000, 0).b)
	// Empty word batches before, at and past the ends; then a release, after
	// which every access fails, a second release that draws the released
	// image again, and that image read back as zeros.
	f.Add(newProg(4096).readU64s(-5, 0).readU64s(4100, 0).readU64s(4096, 0).readU64s(0, 0).
		writeThrough(4000, 96, 1).release().readU64s(0, 0).readU64s(0, 1).read(0, 0).view(0, 0).
		writeThroughGroup(0, 0, 2).release().readU64s(3992, 2).view(4000, 96).b)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(binary.BigEndian.Uint16(data))%fuzzMaxCap
		p := newPair(t, capacity)
		defer func() { p.d.Release() }()
		p.agree("new device")
		for i, steps := 0, data[2:]; len(steps) >= 6 && i < fuzzSteps; i, steps = i+1, steps[6:] {
			off := int(binary.BigEndian.Uint16(steps[1:]))%(capacity+2*fuzzMargin+1) - fuzzMargin
			n := int(binary.BigEndian.Uint16(steps[3:]))%fuzzMaxLen - 1
			step := fmt.Sprintf("step %d", i)
			switch op := steps[0] % nOps; op {
			case opWriteThrough, opWriteThroughGroup:
				n = max(n, 0)
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = steps[5] + byte(j)*7
				}
				pieces := 1
				if op == opWriteThroughGroup {
					pieces += int(steps[5]) % 4
				}
				step += fmt.Sprintf(" WriteThroughGroup(%d bytes, %d, %d pieces)", n, off, pieces)
				var err error
				if pieces == 1 {
					err = p.d.WriteThrough(buf, off)
				} else {
					err = p.d.WriteThroughGroup(buf, off, pieces)
				}
				p.errs(step, err, p.m.writeThroughGroup(buf, off, pieces))
			case opRead:
				n = max(n, 0)
				step += fmt.Sprintf(" ReadAt(%d bytes, %d)", n, off)
				got, want := make([]byte, n), make([]byte, n)
				p.errs(step, p.d.ReadAt(got, off), p.m.readAt(want, off))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: read %x, model %x", step, got, want)
				}
			case opView:
				step += fmt.Sprintf(" View(%d, %d)", off, n)
				got, err := p.d.View(off, n)
				want, ok := p.m.view(off, n)
				p.errs(step, err, ok)
				if !bytes.Equal(got, want) || cap(got) != cap(want) {
					t.Fatalf("%s: view %x cap %d, model %x cap %d", step, got, cap(got), want, cap(want))
				}
			case opReadU64:
				step += fmt.Sprintf(" ReadU64(%d)", off)
				got, err := p.d.ReadU64(off)
				want := make([]uint64, 1)
				p.errs(step, err, p.m.readU64s(want, off))
				if got != want[0] {
					t.Fatalf("%s: read %#x, model %#x", step, got, want[0])
				}
			case opReadU64s:
				k := max(n, 0) % 9
				step += fmt.Sprintf(" ReadU64s(%d words, %d)", k, off)
				got, want := make([]uint64, k), make([]uint64, k)
				p.errs(step, p.d.ReadU64s(got, off), p.m.readU64s(want, off))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: read %#x, model %#x", step, got, want)
				}
			case opRelease:
				step += " Release"
				released := p.m.img == nil
				p.d.Release()
				p.m.img = nil
				if released {
					p.agree(step + " again")
					p.d, p.m = NewDevice(DefaultConfig(capacity)), newModel(capacity)
					step += ", NewDevice"
				}
			}
			p.agree(step)
		}
	})
}

// TestQueueWriteMatchesBytes: a queued write reaches the device only when it
// retires, and then as WriteThrough of the bytes TryWrite was given — also
// over bytes a direct write changed meanwhile, and when it is empty. A power
// failure of the queue drops every write in flight whole: no completion runs
// and no byte of them reaches the device.
func TestQueueWriteMatchesBytes(t *testing.T) {
	const capacity = 8000
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRand(seed)
		eng := sim.NewEngine()
		p := newPair(t, capacity)
		q := NewQueue(eng, p.d, 4096)
		retired, lost, failures := 0, 0, 0
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
				queuedAt := failures
				accepted := q.TryWrite(off, data, func() {
					if failures != queuedAt {
						t.Fatalf("%s: a write queued before a power failure retired after it", step)
					}
					retired++
					p.errs(step+" retire", nil, p.m.writeThroughGroup(model, off, 1))
					p.agree(step + " retire")
				})
				if accepted {
					clear(data)
				}
			case k < 7: // a direct write the queue's range may later cover
				n := 1 + r.Intn(300)
				off := r.Intn(capacity - n + 1)
				data := bytes.Repeat([]byte{byte(i)}, n)
				p.errs(step, p.d.WriteThrough(data, off), p.m.writeThroughGroup(data, off, 1))
			case k < 9:
				eng.RunUntil(eng.Now() + sim.Time(r.Intn(600)))
			default:
				lost += q.InFlight()
				failures++
				q.PowerFail()
			}
			p.agree(step)
		}
		eng.Run()
		p.agree(fmt.Sprintf("seed %d drained", seed))
		if retired == 0 || lost == 0 {
			t.Fatalf("seed %d: %d writes retired, %d lost in flight: the script must see both", seed, retired, lost)
		}
		if got := q.Stats().Dropped; got != uint64(lost) {
			t.Fatalf("seed %d: queue counted %d dropped, %d were in flight", seed, got, lost)
		}
		p.d.Release()
	}
}
