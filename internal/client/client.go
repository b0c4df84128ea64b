// Package client implements the PMNet client-side software library
// (Table I of the paper): sessions, update and bypass requests, PMNet-ACK
// collection (including k-of-k for in-network replication and per-fragment
// ACKs for MTU-sized queries, §IV-A3), and timeout-driven retransmission.
package client

import (
	"fmt"
	"slices"

	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// Mode selects how updates complete.
type Mode uint8

const (
	// ModeBaseline completes updates only on the server's ACK — the
	// traditional Client-Server design point.
	ModeBaseline Mode = iota
	// ModePMNet completes updates once every fragment has collected the
	// required number of PMNet-ACKs (sub-RTT persistence).
	ModePMNet
)

// Config parameterizes a session.
type Config struct {
	Session      uint16
	Server       netsim.NodeID
	Mode         Mode
	RequiredAcks int      // PMNet devices that must log each fragment (replication k); min 1 in ModePMNet
	MTU          int      // 0 = protocol.MTU
	Timeout      sim.Time // retransmission timeout; 0 = 1 ms
	MaxRetries   int      // attempts before failing the request; 0 = 10
	SrcPort      uint16   // 0 = 40000+Session
	DstPort      uint16   // 0 = protocol.PortMin

	// Backoff enables capped exponential backoff on retransmission: retry k
	// re-arms at Timeout·2^k, capped at BackoffCap. Off by default so
	// existing fixed-timeout outputs stay byte-identical; open-loop overload
	// runs turn it on, otherwise every client past the knee retransmits in
	// lockstep at a fixed period and the storm contaminates the measurement.
	Backoff    bool
	BackoffCap sim.Time // max per-retry timeout; 0 = 32×Timeout
}

// Result reports a completed request to the application.
type Result struct {
	Status protocol.Status
	// Args are the raw response arguments (e.g. scan key/value pairs). The
	// array is the session's decode scratch, overwritten by its next read
	// response: a completion that wants it later copies it. The byte slices
	// are payload and may be kept.
	Args      [][]byte
	Value     []byte   // response value for reads
	Latency   sim.Time // issue → completion
	Resends   int      // timeout retransmissions
	FromCache bool     // read served by an in-network cache
	Err       error    // set when the request ultimately failed
}

// Stats counts session activity.
type Stats struct {
	UpdatesSent   uint64
	BypassSent    uint64
	Completed     uint64
	Failed        uint64
	Resends       uint64
	PMNetAcks     uint64
	ServerAcks    uint64
	CacheHits     uint64
	RetransServed uint64 // Retrans requests answered by this client
}

type fragState struct {
	msg       protocol.Message
	acks      int // distinct PMNet-ACKs... counted as received (devices ack once each)
	serverAck bool
	done      bool
}

// pending records are pooled per session (see getPending/putPending); the
// retransmission timer waits on the record's own wheel node (tm), and timerFn
// is bound once at allocation, so re-arming it allocates no closure and takes
// no pooled node.
type pending struct {
	tm        sim.Timer
	firstSeq  uint32
	frags     []fragState
	isUpdate  bool
	issued    sim.Time
	retries   int
	done      bool
	callback  func(Result)
	timer     sim.Event
	timerFn   func()
	response  *protocol.Response
	fromCache bool
}

// Session is one client connection to a server, multiplexed over the PMNet
// protocol. Not safe for concurrent use: everything runs on the virtual
// clock.
// BypassSeqBit tags bypass-request sequence numbers. Updates form the
// ordered, gap-checked stream the server replays after failures; bypass
// requests (reads, locks) are idempotent and may never reach the server at
// all when an in-network cache answers them, so they draw from a separate,
// unordered sequence space to avoid punching permanent holes in the update
// stream.
const BypassSeqBit uint32 = 1 << 31

type Session struct {
	host       *netsim.Host
	eng        *sim.Engine
	cfg        Config
	nextUpdSeq uint32
	nextBypSeq uint32
	// outstanding requests keyed by first fragment seq; fragment seq → owner.
	requests map[uint32]*pending
	bySeq    map[uint32]*pending
	freeP    []*pending // recycled request records
	args     [][]byte   // DecodeResponseInto scratch: what a completion sees as Result.Args
	stats    Stats
	tracer   *trace.Tracer // picked up from the network at New; nil = off
	closed   bool
}

func (s *Session) getPending() *pending {
	if k := len(s.freeP) - 1; k >= 0 {
		p := s.freeP[k]
		s.freeP = s.freeP[:k]
		return p
	}
	p := &pending{}
	p.timerFn = func() { s.onTimeout(p) }
	return p
}

// putPending recycles a finished record, keeping its fragment slice capacity,
// its bound timer callback and its timer: the timer's generation carries on,
// so the Event of an earlier life stays inert.
func (s *Session) putPending(p *pending) {
	frags := p.frags[:0]
	*p = pending{tm: p.tm, frags: frags, timerFn: p.timerFn}
	s.freeP = append(s.freeP, p)
}

// New opens a session on host. The session registers itself as the host's
// packet receiver; one host runs one session (matching the paper's client
// instances, each a separate process).
func New(host *netsim.Host, cfg Config) *Session {
	if cfg.MTU <= 0 {
		cfg.MTU = protocol.MTU
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = sim.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 10
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = 40000 + cfg.Session
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = protocol.PortMin
	}
	if cfg.Mode == ModePMNet && cfg.RequiredAcks <= 0 {
		cfg.RequiredAcks = 1
	}
	if cfg.Backoff && cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 32 * cfg.Timeout
	}
	s := &Session{
		host:       host,
		eng:        host.Engine(),
		cfg:        cfg,
		nextUpdSeq: 1,
		nextBypSeq: BypassSeqBit | 1,
		requests:   make(map[uint32]*pending),
		bySeq:      make(map[uint32]*pending),
		tracer:     host.Network().Tracer(),
	}
	host.OnReceive(s.onPacket)
	return s
}

// Stats returns a copy of the session counters.
func (s *Session) Stats() Stats { return s.stats }

// Outstanding returns the number of in-flight requests.
func (s *Session) Outstanding() int { return len(s.requests) }

// Close ends the session; outstanding requests fail in issue order (sorted
// first-fragment seq), so the completion callbacks — which may schedule
// further events — fire in a reproducible order.
func (s *Session) Close() {
	s.closed = true
	seqs := make([]uint32, 0, len(s.requests))
	for seq := range s.requests {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if p, ok := s.requests[seq]; ok {
			s.fail(p, fmt.Errorf("client: session closed"))
		}
	}
}

// SendUpdate issues an update request (PMNet_send_update in Table I).
// done is invoked on the virtual clock when the request completes: in
// ModePMNet once every fragment is persistent in the required number of
// PMNet devices; in ModeBaseline once the server acknowledges.
func (s *Session) SendUpdate(req protocol.Request, done func(Result)) {
	s.stats.UpdatesSent++
	s.issue(protocol.TypeUpdateReq, req.Encode(), true, done)
}

// Bypass issues a read or synchronization request that must be processed by
// the server (PMNet_bypass in Table I). It completes on the server's
// response or an in-network cache response.
func (s *Session) Bypass(req protocol.Request, done func(Result)) {
	s.stats.BypassSent++
	s.issue(protocol.TypeBypassReq, req.Encode(), false, done)
}

func (s *Session) issue(typ protocol.Type, payload []byte, isUpdate bool, done func(Result)) {
	if s.closed {
		if done != nil {
			done(Result{Status: protocol.StatusError, Err: fmt.Errorf("client: session closed")})
		}
		return
	}
	var first uint32
	if isUpdate {
		first = s.nextUpdSeq
	} else {
		first = s.nextBypSeq
	}
	total := protocol.FragmentCount(len(payload), s.cfg.MTU)
	if isUpdate {
		s.nextUpdSeq += uint32(total)
	} else {
		s.nextBypSeq += uint32(total)
	}
	p := s.getPending()
	p.firstSeq = first
	p.isUpdate = isUpdate
	p.issued = s.eng.Now()
	p.callback = done
	for i := 0; i < total; i++ {
		m := protocol.FragmentAt(typ, s.cfg.Session, first, payload, s.cfg.MTU, i)
		p.frags = append(p.frags, fragState{msg: m})
		s.bySeq[m.Hdr.SeqNum] = p
	}
	s.requests[first] = p
	if s.tracer != nil {
		var upd uint64
		if isUpdate {
			upd = 1
		}
		s.tracer.Emit(trace.EvIssue, trace.SpanID(s.cfg.Session, first), uint64(total), upd)
		s.tracer.Emit(trace.GaugeInFlight, uint64(s.cfg.Session), uint64(len(s.requests)), 0)
	}
	s.transmit(p, false)
	s.armTimer(p)
}

func (s *Session) transmit(p *pending, onlyIncomplete bool) {
	for i := range p.frags {
		f := &p.frags[i]
		if onlyIncomplete && f.done {
			continue
		}
		s.sendFrag(f.msg)
	}
}

// sendFrag transmits one fragment to the server on a pooled packet.
func (s *Session) sendFrag(msg protocol.Message) {
	pkt := s.host.Network().AllocPacket()
	pkt.To = s.cfg.Server
	pkt.SrcPort = s.cfg.SrcPort
	pkt.DstPort = s.cfg.DstPort
	pkt.PMNet = true
	pkt.Msg = msg
	s.host.Send(pkt)
}

func (s *Session) armTimer(p *pending) {
	p.timer = p.tm.After(s.eng, s.timeoutFor(p.retries), p.timerFn)
}

// timeoutFor returns the retransmission timeout for the given retry count:
// the fixed Timeout, or Timeout·2^retries capped at BackoffCap when Backoff
// is on.
func (s *Session) timeoutFor(retries int) sim.Time {
	if !s.cfg.Backoff || retries <= 0 {
		return s.cfg.Timeout
	}
	t := s.cfg.Timeout
	for i := 0; i < retries && t < s.cfg.BackoffCap; i++ {
		t *= 2
	}
	if t > s.cfg.BackoffCap {
		t = s.cfg.BackoffCap
	}
	return t
}

func (s *Session) onTimeout(p *pending) {
	if p.done || s.closed {
		return
	}
	p.retries++
	if p.retries > s.cfg.MaxRetries {
		s.fail(p, fmt.Errorf("client: request seq %d timed out after %d attempts",
			p.firstSeq, p.retries))
		return
	}
	s.stats.Resends++
	if s.tracer != nil {
		s.tracer.Emit(trace.EvResend, trace.SpanID(s.cfg.Session, p.firstSeq), uint64(p.retries), 0)
	}
	s.transmit(p, true)
	s.armTimer(p)
}

func (s *Session) finish(p *pending, res Result) {
	if p.done {
		return
	}
	p.done = true
	p.timer.Cancel()
	delete(s.requests, p.firstSeq)
	for i := range p.frags {
		delete(s.bySeq, p.frags[i].msg.Hdr.SeqNum)
	}
	res.Latency = s.eng.Now() - p.issued
	res.Resends = p.retries
	if res.Err != nil {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	if s.tracer != nil {
		span := trace.SpanID(s.cfg.Session, p.firstSeq)
		if res.Err != nil {
			s.tracer.Emit(trace.EvFail, span, uint64(p.retries), 0)
		} else {
			var cached uint64
			if res.FromCache {
				cached = 1
			}
			s.tracer.Emit(trace.EvComplete, span, uint64(p.retries), cached)
		}
		s.tracer.Emit(trace.GaugeInFlight, uint64(s.cfg.Session), uint64(len(s.requests)), 0)
	}
	// Recycle before the callback: completion handlers typically issue the
	// next request, which can then reuse this record immediately.
	cb := p.callback
	s.putPending(p)
	if cb != nil {
		cb(res)
	}
}

func (s *Session) fail(p *pending, err error) {
	s.finish(p, Result{Status: protocol.StatusError, Err: err})
}

// requiredAcks returns how many PMNet-ACKs complete one fragment, or 0 when
// only a server ACK can.
func (s *Session) requiredAcks() int {
	if s.cfg.Mode == ModePMNet {
		return s.cfg.RequiredAcks
	}
	return 0
}

func (s *Session) maybeCompleteUpdate(p *pending) {
	for i := range p.frags {
		if !p.frags[i].done {
			return
		}
	}
	s.finish(p, Result{Status: protocol.StatusOK})
}

func (s *Session) onPacket(pkt *netsim.Packet) {
	if !pkt.PMNet || s.closed {
		return
	}
	hdr := pkt.Msg.Hdr
	if hdr.SessionID != s.cfg.Session {
		return
	}
	switch hdr.Type {
	case protocol.TypePMNetACK:
		s.stats.PMNetAcks++
		p := s.bySeq[hdr.SeqNum]
		if p == nil || !p.isUpdate {
			return
		}
		f := &p.frags[hdr.SeqNum-p.firstSeq]
		f.acks++
		need := s.requiredAcks()
		if need > 0 && !f.done && f.acks >= need {
			f.done = true
			s.maybeCompleteUpdate(p)
		}
	case protocol.TypeServerACK:
		s.stats.ServerAcks++
		p := s.bySeq[hdr.SeqNum]
		if p == nil {
			return
		}
		f := &p.frags[hdr.SeqNum-p.firstSeq]
		f.serverAck = true
		// A server ACK subsumes any number of PMNet ACKs: the request is
		// fully processed.
		if !f.done {
			f.done = true
			s.maybeCompleteUpdate(p)
		}
	case protocol.TypeReadResp, protocol.TypeCacheResp:
		p := s.bySeq[hdr.SeqNum]
		if p == nil || p.isUpdate {
			return
		}
		resp, err := protocol.DecodeResponseInto(pkt.Msg.Payload, &s.args)
		if err != nil {
			return
		}
		res := Result{Status: resp.Status, Args: resp.Args, FromCache: hdr.Type == protocol.TypeCacheResp}
		if hdr.Type == protocol.TypeCacheResp {
			s.stats.CacheHits++
		}
		// KV read responses carry [key, value]; other responses carry
		// their own arg shapes — expose the raw args tail.
		if len(resp.Args) >= 2 {
			res.Value = resp.Args[1]
		} else if len(resp.Args) == 1 {
			res.Value = resp.Args[0]
		}
		s.finish(p, res)
	case protocol.TypeRetrans:
		// The server is missing one of our packets and no PMNet had it
		// logged: resend just that fragment.
		if p := s.bySeq[hdr.SeqNum]; p != nil {
			s.stats.RetransServed++
			s.sendFrag(p.frags[hdr.SeqNum-p.firstSeq].msg)
		}
	}
}
