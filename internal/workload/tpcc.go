package workload

import (
	"fmt"

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

func tpccKey(parts ...any) []byte {
	s := "tpcc"
	for _, p := range parts {
		s += fmt.Sprintf(":%v", p)
	}
	return []byte(s)
}

// Action implements Mix.
func (m *TPCCMix) Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op {
	seq--
	return m.steps(r, uid, &seq, ops)
}

func (m *TPCCMix) steps(r *sim.Rand, uid int, ids *uint64, ops []Op) []Op {
	if r.Float64() >= m.cfg.UpdateRatio {
		// Order-status: read-only, of the terminal's latest order.
		w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
		return append(ops,
			Op{Req: protocol.GetReq(tpccKey("customer", w, d, uid, "balance"))},
			Op{Req: protocol.GetReq(tpccKey("order", w, d, fmt.Sprintf("o%d-%d", uid, *ids)))},
		)
	}
	if r.Float64() >= 0.6 {
		// Payment: customer balance and district YTD updates; no lock (the
		// per-customer rows are terminal-partitioned in our setup).
		w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
		return append(ops,
			Op{Req: protocol.PutReq(tpccKey("customer", w, d, uid, "balance"), []byte("bal")), Update: true},
			Op{Req: protocol.PutReq(tpccKey("district", w, d, "ytd", uid), []byte("ytd")), Update: true},
			Op{Req: protocol.PutReq(tpccKey("history", w, d, uid), []byte("h")), Update: true},
		)
	}
	// New-order, the Figure 5 pattern: lock the stock row, read it, write
	// the updated stock and the order lines, unlock. The lock requests
	// travel as bypass; the writes inside the critical section are
	// update-reqs that PMNet logs.
	*ids++
	w, d := r.Intn(m.cfg.Warehouses), r.Intn(m.cfg.Districts)
	item := r.Intn(m.cfg.Items)
	lock := tpccKey("stocklock", w, item)
	owner := []byte(fmt.Sprintf("client%d", uid))
	orderID := fmt.Sprintf("o%d-%d", uid, *ids)
	ops = append(ops,
		Op{Req: protocol.Request{Op: protocol.OpLockAcquire, Args: [][]byte{lock, owner}}, Retry: true},
		Op{Req: protocol.GetReq(tpccKey("stock", w, item))},
		Op{Req: protocol.GetReq(tpccKey("customer", w, d, uid, "info"))},
		Op{Req: protocol.PutReq(tpccKey("stock", w, item), []byte("qty-updated")), Update: true},
	)
	for l := 0; l < m.cfg.OrderLines; l++ {
		ops = append(ops, Op{
			Req:    protocol.PutReq(tpccKey("orderline", w, d, orderID, l), []byte("line")),
			Update: true,
		})
	}
	return append(ops,
		Op{Req: protocol.PutReq(tpccKey("order", w, d, orderID), []byte("placed")), Update: true},
		Op{Req: protocol.PutReq(tpccKey("district", w, d, "nextoid"), []byte("oid")), Update: true},
		Op{Req: protocol.Request{Op: protocol.OpLockRelease, Args: [][]byte{lock, owner}}},
	)
}
