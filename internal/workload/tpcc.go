package workload

import (
	"strconv"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// TPCCConfig parameterizes the TPCC subset (§VI-A2, Figure 5). New-order
// transactions put the stock modification inside a critical section guarded
// by a server-side lock; the lock requests bypass PMNet so the server
// enforces multi-client ordering, while the updates inside the critical
// section still benefit from in-network logging (§III-C). The paper reports
// 13.7% of TPCC requests access the locking primitive.
type TPCCConfig struct {
	Warehouses  int
	Districts   int // per warehouse
	Items       int
	UpdateRatio float64 // fraction of mutating transactions (Fig. 19 sweep)
	OrderLines  int     // items per new-order (default 5)
}

// TPCCMix emits the request steps of new-order, payment and order-status
// transactions, with the acting user as the terminal.
type TPCCMix struct {
	cfg TPCCConfig
}

// NewTPCCMix completes cfg with the calibrated defaults.
func NewTPCCMix(cfg TPCCConfig) *TPCCMix {
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = 4
	}
	if cfg.Districts <= 0 {
		cfg.Districts = 10
	}
	if cfg.Items <= 0 {
		cfg.Items = 1000
	}
	if cfg.OrderLines <= 0 {
		cfg.OrderLines = 5
	}
	if cfg.UpdateRatio == 0 {
		cfg.UpdateRatio = 0.88 // TPC-C is ~92% read-write txns; tuned so lock
		// requests are ≈13.7% of all requests, matching §III-C.
	}
	return &TPCCMix{cfg: cfg}
}

// NewTPCC builds the closed-loop generator of one client: the mix played by
// terminal clientID with a private order counter.
func NewTPCC(rand *sim.Rand, clientID int, cfg TPCCConfig) *Player {
	return &Player{mix: NewTPCCMix(cfg), rand: rand, uid: clientID}
}

// The values the transactions write. Never written themselves.
var (
	valBalance = []byte("bal")
	valYTD     = []byte("ytd")
	valHistory = []byte("h")
	valStock   = []byte("qty-updated")
	valLine    = []byte("line")
	valPlaced  = []byte("placed")
	valNextOID = []byte("oid")
)

// tableKey starts a key of table in op's key bytes: "tpcc:<table>", to which
// the appends below add the row's parts.
func tableKey(op *Op, table string) []byte {
	return append(append(op.kb[:0], "tpcc:"...), table...)
}

// appendInts appends ":<v>" for every v: the numeric parts of a TPCC key,
// which reads tpcc:<table>:<part>:<part>...
func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, ':'), int64(v), 10)
	}
	return b
}

// appendOrderID appends ":o<uid>-<n>", the key part naming terminal uid's
// order number n.
func appendOrderID(b []byte, uid int, n uint64) []byte {
	return appendID(append(b, ":o"...), uid, n)
}

// Action implements Mix.
func (m *TPCCMix) Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op {
	seq--
	return m.steps(r, uid, &seq, ops)
}

// steps formats each key into the op that carries it (Op.kb).
func (m *TPCCMix) steps(r *sim.Rand, uid int, ids *uint64, ops []Op) []Op {
	var op *Op
	if r.Float64() >= m.cfg.UpdateRatio {
		// Order-status: read-only, of the terminal's latest order.
		w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
		ops, op = push(ops)
		op.fill(protocol.OpGet, false, append(appendInts(tableKey(op, "customer"), w, d, uid), ":balance"...))
		ops, op = push(ops)
		op.fill(protocol.OpGet, false, appendOrderID(appendInts(tableKey(op, "order"), w, d), uid, *ids))
		return ops
	}
	if r.Float64() >= 0.6 {
		// Payment: customer balance and district YTD updates; no lock (the
		// per-customer rows are terminal-partitioned in our setup).
		w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
		ops, op = push(ops)
		op.fill(protocol.OpPut, true, append(appendInts(tableKey(op, "customer"), w, d, uid), ":balance"...), valBalance)
		ops, op = push(ops)
		op.fill(protocol.OpPut, true, appendInts(append(appendInts(tableKey(op, "district"), w, d), ":ytd"...), uid), valYTD)
		ops, op = push(ops)
		op.fill(protocol.OpPut, true, appendInts(tableKey(op, "history"), w, d, uid), valHistory)
		return ops
	}
	// New-order, the Figure 5 pattern: lock the stock row, read it, write
	// the updated stock and the order lines, unlock. The lock requests
	// travel as bypass; the writes inside the critical section are
	// update-reqs that PMNet logs.
	*ids++
	w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
	item := r.Intn(m.cfg.Items)
	ops, op = push(ops)
	lockOp(op, protocol.OpLockAcquire, w, item, uid)
	op.Retry = true
	ops, op = push(ops)
	op.fill(protocol.OpGet, false, appendInts(tableKey(op, "stock"), w, item))
	ops, op = push(ops)
	op.fill(protocol.OpGet, false, append(appendInts(tableKey(op, "customer"), w, d, uid), ":info"...))
	ops, op = push(ops)
	op.fill(protocol.OpPut, true, appendInts(tableKey(op, "stock"), w, item), valStock)
	for l := 0; l < m.cfg.OrderLines; l++ {
		ops, op = push(ops)
		op.fill(protocol.OpPut, true,
			appendInts(appendOrderID(appendInts(tableKey(op, "orderline"), w, d), uid, *ids), l), valLine)
	}
	ops, op = push(ops)
	op.fill(protocol.OpPut, true, appendOrderID(appendInts(tableKey(op, "order"), w, d), uid, *ids), valPlaced)
	ops, op = push(ops)
	op.fill(protocol.OpPut, true, append(appendInts(tableKey(op, "district"), w, d), ":nextoid"...), valNextOID)
	ops, op = push(ops)
	lockOp(op, protocol.OpLockRelease, w, item, uid)
	return ops
}

// lockOp makes op the acquire or release of item's stock lock in warehouse w
// by terminal uid: Args = [lock name, owner], both in op's key bytes.
func lockOp(op *Op, code protocol.Op, w, item, uid int) {
	b := appendInts(tableKey(op, "stocklock"), w, item)
	k := len(b)
	b = strconv.AppendInt(append(b, "client"...), int64(uid), 10)
	op.fill(code, false, b[:k:k], b[k:])
}
