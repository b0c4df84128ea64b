package workload

import (
	"slices"
	"strconv"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// YCSBConfig parameterizes the YCSB-like driver (§VI-A2: "We use a
// YCSB-like client to generate and send read/update requests").
type YCSBConfig struct {
	Keys        int     // keyspace size
	UpdateRatio float64 // fraction of requests that are updates (Fig. 19 sweeps this)
	ValueSize   int     // payload bytes (default 100, §VI-A2)
	Zipfian     bool    // zipfian key popularity (vs uniform)
	Theta       float64 // zipf exponent (default 0.99)
	ScanRatio   float64 // fraction of non-update requests that are range scans (YCSB-E)
	ScanLen     int     // pairs per scan (default 10)
}

// YCSB generates GET/PUT requests over a keyspace.
type YCSB struct {
	cfg   YCSBConfig
	rand  *sim.Rand
	zipf  *sim.Zipf
	value []byte
	seq   uint64
}

// YCSBFactory makes the generators of one run. Everything a generator
// derives from the config alone — the defaults, the update value, the zipf
// table — is computed once, when the factory is built, and shared read-only
// by every generator it makes.
type YCSBFactory struct {
	cfg   YCSBConfig
	zipf  *sim.ZipfTable
	value []byte
}

// NewYCSBFactory completes cfg with the defaults and builds what its
// generators share.
func NewYCSBFactory(cfg YCSBConfig) *YCSBFactory {
	if cfg.Keys <= 0 {
		cfg.Keys = 10000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 100
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	f := &YCSBFactory{cfg: cfg, value: ycsbValue(cfg.ValueSize)}
	if cfg.Zipfian {
		f.zipf = sim.NewZipfTable(cfg.Keys, cfg.Theta)
	}
	return f
}

// New builds a generator with its own RNG stream; a zipfian one forks its
// sampler's stream from rand first.
func (f *YCSBFactory) New(rand *sim.Rand) *YCSB {
	y := &YCSB{cfg: f.cfg, rand: rand, value: f.value}
	if f.zipf != nil {
		y.zipf = f.zipf.New(rand.Fork())
	}
	return y
}

// NewYCSB builds a generator with its own RNG stream: NewYCSBFactory(cfg)
// applied to one stream.
func NewYCSB(rand *sim.Rand, cfg YCSBConfig) *YCSB { return NewYCSBFactory(cfg).New(rand) }

// ycsbValue is the n-byte payload every update of one factory's generators
// shares.
func ycsbValue(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// YCSBKey returns the i-th key in the keyspace (for prefill). It produces
// exactly fmt.Sprintf("user%08d", i) for non-negative i.
func YCSBKey(i int) []byte { return appendYCSBKey(nil, i) }

// appendYCSBKey appends the i-th key to dst, growing it at most once. The
// key is formatted by hand: key generation runs once per request on the hot
// path and Sprintf costs several allocations per call.
func appendYCSBKey(dst []byte, i int) []byte {
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], int64(i), 10)
	dst = slices.Grow(dst, 4+max(8, len(n)))
	dst = append(dst, "user"...)
	for pad := 8 - len(n); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, n...)
}

func (y *YCSB) nextIndex() int {
	if y.zipf != nil {
		return y.zipf.Next()
	}
	return y.rand.Intn(y.cfg.Keys)
}

// NextInto draws the next request into *op, formatting the key into op's own
// storage, so a caller that keeps one Op and refills it allocates nothing.
// Such an op is scratch: it is valid until the next NextInto on it, and
// whoever needs a request for longer must copy what it keeps (the client's
// Encode does). The value argument is shared by every update the generator
// draws and is never written.
func (y *YCSB) NextInto(op *Op) {
	y.seq++
	key := appendYCSBKey(op.kb[:0], y.nextIndex())
	switch {
	case y.rand.Float64() < y.cfg.UpdateRatio:
		op.fill(protocol.OpPut, true, key, y.value)
	case y.cfg.ScanRatio > 0 && y.rand.Float64() < y.cfg.ScanRatio:
		scanLen := y.cfg.ScanLen
		if scanLen <= 0 {
			scanLen = 10
		}
		k := len(key)
		b := strconv.AppendInt(key, int64(scanLen), 10)
		op.fill(protocol.OpScan, false, b[:k:k], b[k:])
	default:
		op.fill(protocol.OpGet, false, key)
	}
}

// Next implements Generator: NextInto on a fresh Op, which backs the one
// returned for as long as the caller keeps it.
func (y *YCSB) Next() Op {
	op := new(Op)
	y.NextInto(op)
	return *op
}

// KVMix is the key-value workload as a Mix, for open-loop runs against the
// plain KV servers: every action is one request over a shared uniform
// keyspace.
type KVMix struct {
	keys        int
	updateRatio float64
	value       []byte
}

// NewKVMix completes the config with the YCSB defaults.
func NewKVMix(keys, valueSize int, updateRatio float64) *KVMix {
	if keys <= 0 {
		keys = 10000
	}
	if valueSize <= 0 {
		valueSize = 100
	}
	return &KVMix{keys: keys, updateRatio: updateRatio, value: ycsbValue(valueSize)}
}

// Action implements Mix.
func (m *KVMix) Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op {
	ops, op := push(ops)
	key := appendYCSBKey(op.kb[:0], r.Intn(m.keys))
	if r.Float64() < m.updateRatio {
		op.fill(protocol.OpPut, true, key, m.value)
	} else {
		op.fill(protocol.OpGet, false, key)
	}
	return ops
}
