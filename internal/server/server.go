// Package server implements the PMNet server-side software library
// (Table I: PMNet_recv / PMNet_ack): per-session reorder buffers that
// restore the client's original update order from SeqNums (Figure 7), gap
// detection with Retrans requests, duplicate suppression with make-up
// server-ACKs, and the post-failure recovery poll that replays PMNet's
// logs (§IV-E).
package server

import (
	"encoding/binary"

	"pmnet/internal/netsim"
	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// Handler executes application requests. It returns the response and the
// CPU cost of processing, which the library charges to the host's worker
// pool — that cost is the paper's "server processing time".
//
// The request is the library's, valid only during Handle: the req.Args array
// is per-session scratch, and the bytes it points at are the packet the
// request arrived in, or a session buffer the library recycles once Handle
// returns. A handler copies what it keeps of them — a store writes them to
// its own memory — and must not keep req.Args or a sub-slice of it. It may
// return them in its response — Response{Args: [][]byte{req.Args[0], v}} is
// legal — because the library encodes the response before the bytes go back.
//
// The response is in turn the handler's to reuse — the Args array and the
// bytes it points at: the library encodes the response before it returns to
// the event loop, so a handler may build every response in one scratch array
// and point it at memory of its own that the next request rewrites (a number
// formatted into a handler buffer, a value viewed in place in the store's PM
// arena, which the next update overwrites). A caller of Handle may keep the
// response only until it calls Handle again, and copies what it needs for
// longer.
type Handler interface {
	Handle(req protocol.Request) (protocol.Response, sim.Time)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req protocol.Request) (protocol.Response, sim.Time)

// Handle implements Handler.
func (f HandlerFunc) Handle(req protocol.Request) (protocol.Response, sim.Time) { return f(req) }

// IdealHandler is the microbenchmark request handler of §VI-B1: it
// acknowledges "upon reception of the request, without processing it".
// Even so, the acknowledgement costs a user-space turnaround — socket
// wakeup, dispatch, reply — which the paper's libVMA experiment (§VI-B7)
// shows still dominates once the kernel stack is bypassed; ≈12 µs matches
// the residual server-side cost its Figure 22 implies.
type IdealHandler struct {
	Cost sim.Time // 0 = 12 µs
}

// Handle implements Handler.
func (h IdealHandler) Handle(req protocol.Request) (protocol.Response, sim.Time) {
	cost := h.Cost
	if cost == 0 {
		cost = 12 * sim.Microsecond
	}
	return protocol.Response{Status: protocol.StatusOK}, cost
}

// Config parameterizes the server library.
type Config struct {
	// GapTimeout is how long a sequence gap may persist before the library
	// requests retransmission (Figure 7b). 0 = 50 µs.
	GapTimeout sim.Time
	// RetransLimit bounds retransmission requests per missing sequence
	// number; past it the gap is abandoned (nextSeq jumps over it) so a
	// permanently lost update — e.g. its client died mid-stream — cannot
	// wedge the session forever. 0 = 200.
	RetransLimit int
	// Devices lists the PMNet devices polled during recovery (deployment
	// knowledge: the ToR switch / NIC chain in front of this server).
	Devices []netsim.NodeID
	// MetaPMBytes sizes the PM region holding per-session applied-sequence
	// watermarks; 0 = 256 KiB (4 bytes × 64 Ki sessions).
	MetaPMBytes int
	// OnCrash/OnRestart let the application drop its volatile state and
	// recover its persistent state in lockstep with the library (e.g.
	// replaying the KV engine's redo log on restart).
	OnCrash   func()
	OnRestart func()
}

// Stats counts server library activity.
type Stats struct {
	UpdatesApplied uint64
	ReadsServed    uint64
	Duplicates     uint64 // resent/replayed updates dropped via SeqNum
	MakeupAcks     uint64 // server-ACKs for duplicates, to reclaim logs
	RetransSent    uint64
	GapsAbandoned  uint64 // permanently missing seqs skipped after RetransLimit
	Buffered       uint64 // out-of-order fragments parked in the reorder buffer
	Reordered      uint64 // fragments that arrived ahead of a gap and were later applied
	Recoveries     uint64
	Crashes        uint64
}

// query is one complete request: its (reassembled) payload, the sequence
// numbers it covers and where its acknowledgement goes. The payload aliases
// the packet it came in until the receive callback returns; a query that
// waits longer — in the run queue of a busy session — holds it in a session
// buffer (owned), which goes back once Handle has seen it.
type query struct {
	firstSeq uint32
	lastSeq  uint32
	payload  []byte
	owned    bool // payload is a session buffer (hold), given back by done
	from     netsim.NodeID
	srcPort  uint16
	dstPort  uint16
}

// bufferedFrag is one update fragment on its way through the ordered path.
// It copies the fields the path needs out of the carrying packet, which is
// pool-owned and recycled when the host's receive callback returns. An
// out-of-order fragment parked in the reorder buffer holds its payload in a
// session buffer (owned); an in-order one read straight from its packet does
// not.
type bufferedFrag struct {
	msg     protocol.Message
	owned   bool // msg.Payload is a session buffer (sessState.hold)
	from    netsim.NodeID
	srcPort uint16
	dstPort uint16
}

type sessState struct {
	client   netsim.NodeID
	nextSeq  uint32
	buffered map[uint32]bufferedFrag
	reasm    map[uint32]*protocol.Reassembler
	gapArmed bool
	retrans  map[uint32]int // retransmission attempts per missing seq
	args     [][]byte       // DecodeRequestInto scratch: what a Handler sees as req.Args

	// Recycled storage for bytes that outlive their packet: payload buffers
	// (hold/done) and reassemblers of multi-fragment queries.
	bufs   [][]byte
	reasms []*protocol.Reassembler

	// Ordered execution: queries wait in queue[qhead:] and run one at a
	// time; an idle session's queue is empty. The one on the CPU is the
	// session's apply record, cur (its payload already released).
	queue []query
	qhead int
	busy  bool
	cur   query

	// gen is the server generation the session was created under. Crash
	// discards every session, so a state lives in one generation only, and its
	// two completions — applyFn (cur's CPU time) and gapFn (the gap timer),
	// bound once at creation — do nothing when they fire into a later one.
	gen     uint64
	applyFn func()
	gapFn   func()
}

// readDone fires when a read's CPU time has elapsed: send the response — or
// recycle it, if the server crashed since Handle returned (Stamp is the
// generation the request was handled under).
func (s *Server) readDone(pkt *netsim.Packet) {
	if pkt.Stamp != s.gen {
		s.host.Network().FreePacket(pkt)
		return
	}
	s.stats.ReadsServed++
	s.host.Send(pkt)
}

// hold copies b into a buffer the session recycles, for bytes that must
// outlive the packet they came in. done gives it back.
func (st *sessState) hold(b []byte) []byte {
	var buf []byte
	if k := len(st.bufs) - 1; k >= 0 {
		buf, st.bufs = st.bufs[k], st.bufs[:k]
	}
	return append(buf, b...)
}

// push appends a query to the run queue. Before growing it reclaims the
// consumed prefix, so a queue that never quite drains stays bounded by its
// peak depth.
func (st *sessState) push(q query) {
	if st.qhead > 0 && len(st.queue) == cap(st.queue) {
		n := copy(st.queue, st.queue[st.qhead:])
		clear(st.queue[n:])
		st.queue, st.qhead = st.queue[:n], 0
	}
	st.queue = append(st.queue, q)
}

// pop removes the head of the run queue, keeping the slice's capacity.
func (st *sessState) pop() query {
	q := st.queue[st.qhead]
	st.queue[st.qhead] = query{} // drop the payload reference: the query owns it now
	if st.qhead++; st.qhead == len(st.queue) {
		st.queue, st.qhead = st.queue[:0], 0
	}
	return q
}

// Server is the PMNet server library bound to one host.
type Server struct {
	host    *netsim.Host
	eng     *sim.Engine
	cfg     Config
	handler Handler
	meta    *pmem.Device
	sess    map[uint16]*sessState
	stats   Stats
	tracer  *trace.Tracer // picked up from the network at New; nil = off
	gen     uint64        // bumped on crash; stale CPU completions are dropped

	readFn func(*netsim.Packet) // readDone, bound once: what a response does after its CPU time
}

// New binds a server library to host with the given handler.
func New(host *netsim.Host, handler Handler, cfg Config) *Server {
	if cfg.GapTimeout <= 0 {
		cfg.GapTimeout = 50 * sim.Microsecond
	}
	if cfg.RetransLimit <= 0 {
		cfg.RetransLimit = 200
	}
	if cfg.MetaPMBytes <= 0 {
		cfg.MetaPMBytes = 4 * 65536
	}
	s := &Server{
		host:    host,
		eng:     host.Engine(),
		cfg:     cfg,
		handler: handler,
		meta:    pmem.NewDevice(pmem.DefaultConfig(cfg.MetaPMBytes)),
		sess:    make(map[uint16]*sessState),
		tracer:  host.Network().Tracer(),
	}
	s.readFn = s.readDone
	host.OnReceive(s.onPacket)
	return s
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Host exposes the underlying host.
func (s *Server) Host() *netsim.Host { return s.host }

// Meta exposes the PM region holding the per-session applied sequences.
func (s *Server) Meta() *pmem.Device { return s.meta }

// SetHandler replaces the request handler. Only a test of the root package
// calls it, to wrap the handler of an already built testbed.
func (s *Server) SetHandler(h Handler) { s.handler = h }

func (s *Server) session(id uint16) *sessState {
	st, ok := s.sess[id]
	if !ok {
		st = &sessState{
			nextSeq:  s.lastApplied(id) + 1,
			buffered: make(map[uint32]bufferedFrag),
			reasm:    make(map[uint32]*protocol.Reassembler),
			retrans:  make(map[uint32]int),
			gen:      s.gen,
		}
		st.applyFn = func() { s.applied(id, st) }
		st.gapFn = func() { s.gapCheck(id, st) }
		s.sess[id] = st
	}
	return st
}

// lastApplied reads the persistent applied-sequence watermark for a session.
func (s *Server) lastApplied(id uint16) uint32 {
	var b [4]byte
	if err := s.meta.ReadAt(b[:], int(id)*4); err != nil {
		panic("server: meta read: " + err.Error())
	}
	return binary.BigEndian.Uint32(b[:])
}

// setLastApplied writes the watermark through: it is durable on return. The
// application's own state must be durable before this is called; the pair
// gives standard redo semantics
// (re-applying an update whose watermark write was lost is safe for the
// idempotent KV operations PMNet targets).
func (s *Server) setLastApplied(id uint16, seq uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], seq)
	off := int(id) * 4
	if err := s.meta.WriteThrough(b[:], off); err != nil {
		panic("server: meta write: " + err.Error())
	}
}

// packet builds a library-originated PMNet packet with no payload on a
// pooled allocation, sealing its header.
func (s *Server) packet(to netsim.NodeID, srcPort, dstPort uint16, hdr protocol.Header) *netsim.Packet {
	hdr.Seal()
	pkt := s.host.Network().AllocPacket()
	pkt.To = to
	pkt.SrcPort = srcPort
	pkt.DstPort = dstPort
	pkt.SetMsg(hdr, nil)
	return pkt
}

// reply builds the packet answering q's sender: the ports swap, so the PMNet
// port is the source and devices classify the reply.
func (s *Server) reply(q query, hdr protocol.Header) *netsim.Packet {
	return s.packet(q.from, q.dstPort, q.srcPort, hdr)
}

// response builds the reply carrying resp, encoded into the packet's own
// buffer.
func (s *Server) response(q query, hdr protocol.Header, resp protocol.Response) *netsim.Packet {
	out := s.reply(q, hdr)
	out.Raw = resp.AppendEncode(out.Raw[:0])
	out.SetMsg(out.Msg.Hdr, out.Raw)
	return out
}

func (s *Server) sendServerAck(sessID uint16, q query) {
	for seq := q.firstSeq; seq <= q.lastSeq; seq++ {
		if s.tracer != nil {
			s.tracer.Emit(trace.EvServerAck, uint64(s.host.ID()), 0, trace.SpanID(sessID, seq))
		}
		hdr := protocol.Header{
			Type:      protocol.TypeServerACK,
			SessionID: sessID,
			SeqNum:    seq,
			FragIdx:   uint16(seq - q.firstSeq),
			FragTotal: uint16(q.lastSeq - q.firstSeq + 1),
		}
		s.host.Send(s.reply(q, hdr))
	}
}

func (s *Server) onPacket(pkt *netsim.Packet) {
	if !pkt.PMNet {
		return
	}
	hdr := pkt.Msg.Hdr
	switch hdr.Type {
	case protocol.TypeUpdateReq:
		s.onUpdate(pkt)
	case protocol.TypeBypassReq:
		s.onBypass(pkt)
	}
}

// onBypass serves reads and synchronization requests immediately: they are
// not part of the ordered update stream (see client.BypassSeqBit).
func (s *Server) onBypass(pkt *netsim.Packet) {
	hdr := pkt.Msg.Hdr
	st := s.session(hdr.SessionID)
	st.client = pkt.From
	q, ok := st.reassemble(bufferedFrag{msg: pkt.Msg})
	if !ok {
		return // incomplete (or inconsistent duplicate)
	}
	q.from, q.srcPort, q.dstPort = pkt.From, pkt.SrcPort, pkt.DstPort
	rh := protocol.Header{
		Type:      protocol.TypeReadResp,
		SessionID: hdr.SessionID,
		SeqNum:    hdr.SeqNum - uint32(hdr.FragIdx),
		FragTotal: 1,
	}
	req, derr := protocol.DecodeRequestInto(q.payload, &st.args)
	if derr != nil {
		st.done(q)
		s.host.Send(s.response(q, rh, protocol.Response{Status: protocol.StatusError}))
		return
	}
	// Build the response now: its Args array is the handler's scratch and its
	// bytes may be the request's (see Handler), so it is encoded at once and
	// the packet carrying it waits out the CPU time itself, stamped with the
	// generation it was handled under.
	resp, cost := s.handler.Handle(req)
	out := s.response(q, rh, resp)
	st.done(q)
	out.Stamp = s.gen
	out.At(s.eng, s.host.CPU().Reserve(cost), s.readFn)
}

// reassemble feeds one fragment to its query's reassembly and returns the
// query once it is complete, or ok=false while fragments are still missing.
// A single-fragment query's payload is the fragment's own. A longer one's is
// its reassembler's, which goes back to the session at once — the bytes stay
// valid until the session's next multi-fragment query starts, and its caller
// runs the query or holds the bytes before then. The buffer of an owned
// fragment goes back once the reassembler has copied it.
func (st *sessState) reassemble(f bufferedFrag) (q query, ok bool) {
	hdr := f.msg.Hdr
	firstSeq := hdr.SeqNum - uint32(hdr.FragIdx)
	q = query{firstSeq: firstSeq, lastSeq: firstSeq, payload: f.msg.Payload, owned: f.owned}
	if hdr.FragTotal <= 1 {
		return q, true
	}
	r, ok := st.reasm[firstSeq]
	if !ok {
		if k := len(st.reasms) - 1; k >= 0 {
			r, st.reasms = st.reasms[k], st.reasms[:k]
			r.Reset(firstSeq, hdr.FragTotal)
		} else {
			r = protocol.NewReassembler(firstSeq, hdr.FragTotal)
		}
		st.reasm[firstSeq] = r
	}
	whole, err := r.Add(f.msg)
	st.done(q)
	if err != nil {
		return query{}, false
	}
	delete(st.reasm, firstSeq)
	st.reasms = append(st.reasms, r)
	q.lastSeq = firstSeq + uint32(hdr.FragTotal) - 1
	q.payload, q.owned = whole, false
	return q, true
}

// done gives back the session buffer q's payload was held in, if any: the
// query's bytes have been read for the last time.
func (st *sessState) done(q query) {
	if q.owned {
		raceflag.Poison(q.payload)
		st.bufs = append(st.bufs, q.payload[:0])
	}
}

// onUpdate runs the ordered path: dedupe, reorder, reassemble, then execute
// in client order.
func (s *Server) onUpdate(pkt *netsim.Packet) {
	hdr := pkt.Msg.Hdr
	st := s.session(hdr.SessionID)
	st.client = pkt.From
	frag := bufferedFrag{msg: pkt.Msg, from: pkt.From, srcPort: pkt.SrcPort, dstPort: pkt.DstPort}
	seq := hdr.SeqNum
	switch {
	case seq < st.nextSeq:
		s.stats.Duplicates++
		// A make-up server-ACK reclaims the PMNet log entry (§IV-E1), so it
		// may ONLY be sent once the request is durably applied (covered by
		// the persistent watermark). nextSeq is volatile — it advances when
		// a packet is *received* in order, before the handler has run — and
		// a crash can roll it back; acking on nextSeq alone would destroy
		// the only persistent copy of a queued-but-unapplied update.
		if seq <= s.lastApplied(hdr.SessionID) {
			s.stats.MakeupAcks++
			ack := protocol.Header{
				Type:      protocol.TypeServerACK,
				SessionID: hdr.SessionID,
				SeqNum:    seq,
				FragIdx:   hdr.FragIdx,
				FragTotal: hdr.FragTotal,
			}
			s.host.Send(s.reply(query{from: pkt.From, srcPort: pkt.SrcPort, dstPort: pkt.DstPort}, ack))
		}
		// Otherwise the duplicate is of an in-flight (queued) query; the
		// genuine server-ACK follows its application.
	case seq == st.nextSeq:
		delete(st.retrans, seq)
		st.nextSeq++
		s.applyInOrder(st, frag)
		s.drain(st)
	default: // seq > st.nextSeq: a gap
		if _, dup := st.buffered[seq]; dup {
			s.stats.Duplicates++
			return
		}
		frag.msg.Payload, frag.owned = st.hold(frag.msg.Payload), true
		st.buffered[seq] = frag
		s.stats.Buffered++
		s.armGapCheck(st)
	}
}

// drain applies the buffered fragments that nextSeq has caught up with.
func (s *Server) drain(st *sessState) {
	for {
		next, ok := st.buffered[st.nextSeq]
		if !ok {
			return
		}
		delete(st.buffered, st.nextSeq)
		delete(st.retrans, st.nextSeq)
		st.nextSeq++
		s.stats.Reordered++
		s.applyInOrder(st, next)
	}
}

// armGapCheck schedules a retransmission request if the gap persists
// (Figure 7b).
func (s *Server) armGapCheck(st *sessState) {
	if st.gapArmed {
		return
	}
	st.gapArmed = true
	s.eng.After(s.cfg.GapTimeout, st.gapFn)
}

// gapCheck is the session's gap timer: request what is still missing, give up
// on what has been requested too often, apply what that unblocks, re-arm.
func (s *Server) gapCheck(sessID uint16, st *sessState) {
	if st.gen != s.gen {
		return
	}
	st.gapArmed = false
	if len(st.buffered) == 0 {
		return
	}
	// Request every missing seq between nextSeq and the highest
	// buffered packet. A seq that stays missing past RetransLimit
	// attempts is abandoned: its sender is gone for good (the update
	// was never acknowledged, so no guarantee attaches) and stalling
	// the session forever would wedge every later update.
	var maxSeq uint32
	//pmnetlint:ignore maprange pure max reduction; any iteration order yields the same maxSeq
	for q := range st.buffered {
		if q > maxSeq {
			maxSeq = q
		}
	}
	for seq := st.nextSeq; seq < maxSeq; seq++ {
		if _, have := st.buffered[seq]; have {
			continue
		}
		st.retrans[seq]++
		if st.retrans[seq] > s.cfg.RetransLimit {
			continue // abandoned below once it is the head of line
		}
		s.stats.RetransSent++
		// Fragment geometry of the missing packet is unknown in
		// general; assume single-fragment (the common case). PMNet
		// serves the Retrans when the hash matches; otherwise the
		// client's bySeq lookup resends the right fragment.
		rh := protocol.Header{
			Type:      protocol.TypeRetrans,
			SessionID: sessID,
			SeqNum:    seq,
			FragTotal: 1,
		}
		s.host.Send(s.packet(st.client, protocol.PortMin, 40000+sessID, rh))
	}
	// Abandon a head-of-line gap that exhausted its retransmissions.
	for {
		if _, have := st.buffered[st.nextSeq]; have {
			break
		}
		if st.nextSeq >= maxSeq || st.retrans[st.nextSeq] <= s.cfg.RetransLimit {
			break
		}
		delete(st.retrans, st.nextSeq)
		st.nextSeq++
		s.stats.GapsAbandoned++
	}
	s.drain(st) // anything the jump unblocked
	s.armGapCheck(st)
}

// applyInOrder feeds one in-order fragment to reassembly and runs the
// completed query — at once on an idle session, straight from the bytes it
// came in; on a busy one it waits its turn in the run queue, holding its
// payload in a session buffer.
func (s *Server) applyInOrder(st *sessState, f bufferedFrag) {
	q, ok := st.reassemble(f)
	if !ok {
		return // more fragments to come
	}
	q.from, q.srcPort, q.dstPort = f.from, f.srcPort, f.dstPort
	if st.busy {
		if !q.owned {
			q.payload, q.owned = st.hold(q.payload), true
		}
		st.push(q)
		return
	}
	s.run(st, q)
}

// runNext executes queued queries one at a time per session, preserving the
// client's order even across the multi-worker CPU.
func (s *Server) runNext(st *sessState) {
	for !st.busy && st.qhead < len(st.queue) {
		s.run(st, st.pop())
	}
}

// run hands q to the handler and puts the session on the CPU for its cost —
// unless q does not decode: a corrupt query is ignored, and its client will
// time out and resend. Either way q's bytes are done with when run returns.
func (s *Server) run(st *sessState, q query) {
	req, err := protocol.DecodeRequestInto(q.payload, &st.args)
	if err == nil {
		st.busy = true
		st.cur = q
		st.cur.payload = nil
		// Updates acknowledge with server-ACKs, not a response payload.
		_, cost := s.handler.Handle(req)
		s.host.CPU().Submit(cost, st.applyFn)
	}
	st.done(q)
}

// applied is the CPU completion of the session's running query.
func (s *Server) applied(sessID uint16, st *sessState) {
	if st.gen != s.gen {
		return // submitted before a crash: this session state is gone
	}
	q := st.cur
	// The handler's state mutations are durable (engines persist before
	// returning); now persist the watermark and acknowledge.
	s.setLastApplied(sessID, q.lastSeq)
	s.stats.UpdatesApplied++
	if s.tracer != nil {
		s.tracer.Emit(trace.EvServerApply, uint64(s.host.ID()), 0, trace.SpanID(sessID, q.lastSeq))
	}
	s.sendServerAck(sessID, q)
	st.busy = false
	s.runNext(st)
}

// Crash power-fails the server: the host drops traffic, volatile library
// state (reorder buffers, queues) is lost, and the application's OnCrash hook
// fires (to drop its own volatile state). The metadata PM keeps every
// watermark written, since each write is durable on return.
func (s *Server) Crash() {
	s.stats.Crashes++
	s.gen++
	s.host.Fail()
	s.sess = make(map[uint16]*sessState)
	if s.cfg.OnCrash != nil {
		s.cfg.OnCrash()
	}
}

// Recover restarts the host, reloads the persistent watermarks, runs the
// application's OnRestart hook, and polls every configured PMNet device for
// logged requests (§IV-E1). Replayed and client-resent packets then flow
// through the normal ordered path.
func (s *Server) Recover() {
	s.stats.Recoveries++
	s.host.Restart()
	if s.cfg.OnRestart != nil {
		s.cfg.OnRestart()
	}
	for _, dev := range s.cfg.Devices {
		hdr := protocol.Header{Type: protocol.TypeRecoverReq, FragTotal: 1}
		s.host.Send(s.packet(dev, protocol.PortMin, protocol.PortMin, hdr))
	}
}
