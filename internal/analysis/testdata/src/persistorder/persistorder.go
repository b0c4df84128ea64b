// Package fixture exercises the persistorder analyzer: on every control-flow
// path from a pmem write to an ACK/response send, a persist barrier must
// intervene (durable-before-ACK, PAPER §IV-B). The bad cases are the crash
// windows the paper's design closes: an ACK on the wire while the data it
// acknowledges is still in a volatile buffer.
package fixture

import (
	"pmnet/internal/netsim"
	"pmnet/internal/pmem"
	"pmnet/internal/pmobj"
)

// --- straight-line cases -------------------------------------------------

func okWritePersistSend(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	_ = d.Persist(0, len(p))
	h.Send(pkt)
}

func badSendBeforePersist(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	h.Send(pkt) // want "not yet persisted"
	_ = d.Persist(0, len(p))
}

// okWriteThroughSend: a write-through is durable when it returns.
func okWriteThroughSend(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteThrough(p, 0)
	h.Send(pkt)
}

// badWriteThroughIsNoBarrier: the write-through persists its own range, not
// the bare write before it.
func badWriteThroughIsNoBarrier(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	_ = d.WriteThroughGroup(p, 64, 2)
	h.Send(pkt) // want "not yet persisted"
}

// --- path sensitivity: the acceptance-criteria case ----------------------

// badBranchLosesPersist is the seeded bug from the issue: the persist exists
// but one branch skips it. persistcover is blind to this (a barrier appears
// in the body); only the CFG analysis sees the uncovered path.
func badBranchLosesPersist(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet, urgent bool) {
	_ = d.WriteAt(p, 0)
	if !urgent {
		_ = d.Persist(0, len(p))
	}
	h.Send(pkt) // want "not yet persisted"
}

func okBothBranchesPersist(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet, batch bool) {
	_ = d.WriteAt(p, 0)
	if batch {
		d.PersistAll()
	} else {
		_ = d.Persist(0, len(p))
	}
	h.Send(pkt)
}

func badSendInsideLoop(d *pmem.Device, nw *netsim.Network, p []byte, pkts []*netsim.Packet, from netsim.NodeID) {
	_ = d.WriteAt(p, 0)
	for _, pkt := range pkts {
		nw.Transmit(pkt, from) // want "not yet persisted"
	}
	d.PersistAll()
}

// okPersistThenFanOut: the barrier precedes the whole replication fan-out.
func okPersistThenFanOut(d *pmem.Device, nw *netsim.Network, p []byte, pkts []*netsim.Packet, from netsim.NodeID) {
	_ = d.WriteAt(p, 0)
	_ = d.Persist(0, len(p))
	for _, pkt := range pkts {
		nw.TransmitAfter(0, pkt, from)
	}
}

// --- pmobj transactions as write/barrier pairs ---------------------------

func okTxCommitThenAck(a *pmobj.Arena, h *netsim.Host, pkt *netsim.Packet) {
	tx := a.Begin()
	tx.WriteU64(64, 1)
	tx.Commit()
	h.Send(pkt)
}

func badTxAckBeforeCommit(a *pmobj.Arena, h *netsim.Host, pkt *netsim.Packet) {
	tx := a.Begin()
	tx.WriteU64(64, 1)
	h.Send(pkt) // want "not yet persisted"
	tx.Commit()
}

// okArenaUpdate: Update runs the transaction to commit before returning.
func okArenaUpdate(a *pmobj.Arena, h *netsim.Host, pkt *netsim.Packet) {
	_ = a.Update(func(tx *pmobj.Tx) error {
		tx.WriteU64(64, 1)
		return nil
	})
	h.Send(pkt)
}

// --- interprocedural: facts flow through direct callees ------------------

func sendAck(h *netsim.Host, pkt *netsim.Packet) {
	h.Send(pkt)
}

func persistThenAck(d *pmem.Device, h *netsim.Host, pkt *netsim.Packet) {
	d.PersistAll()
	h.Send(pkt)
}

func stageWrite(d *pmem.Device, p []byte) {
	_ = d.WriteAt(p, 0)
}

// badAckViaHelper: the send is hidden one call deep; the violation is
// reported at the call site that triggers it.
func badAckViaHelper(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	sendAck(h, pkt) // want "call to sendAck sends"
}

// okAckViaPersistingHelper: the callee persists on every path before its
// send, clearing the caller's pending write too.
func okAckViaPersistingHelper(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	persistThenAck(d, h, pkt)
}

// badWriteViaHelper: the pending write is inherited from the callee.
func badWriteViaHelper(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	stageWrite(d, p)
	h.Send(pkt) // want "not yet persisted"
}

func okWriteViaHelperThenPersist(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	stageWrite(d, p)
	d.PersistAll()
	h.Send(pkt)
}

// --- defer and function literals -----------------------------------------

// badDeferredPersist: the deferred barrier runs only at function exit,
// after the send has already left.
func badDeferredPersist(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) {
	_ = d.WriteAt(p, 0)
	defer d.PersistAll()
	h.Send(pkt) // want "not yet persisted"
}

// okClosureIsSeparate: the closure body runs at an unrelated virtual time
// (e.g. a CPU-completion callback), so the enclosing write does not flow
// into it — and its own send is clean in isolation.
func okClosureIsSeparate(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) func() {
	_ = d.WriteAt(p, 0)
	done := func() {
		h.Send(pkt)
	}
	d.PersistAll()
	return done
}

// badClosureOwnWindow: the closure itself writes then sends — it is analyzed
// as an independent unit and caught on its own.
func badClosureOwnWindow(d *pmem.Device, h *netsim.Host, p []byte, pkt *netsim.Packet) func() {
	return func() {
		_ = d.WriteAt(p, 0)
		h.Send(pkt) // want "not yet persisted"
	}
}
