// Package netsim provides the simulated datacenter network substrate:
// nodes (hosts, switches, PMNet devices) connected by links with
// propagation delay, serialization at a configured line rate, bounded
// drop-tail queues, and optional random loss. Routing is hop-by-hop so
// in-network devices observe — and may act on — every packet that crosses
// them, which is precisely what the PMNet data plane requires.
package netsim

import (
	"fmt"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// NodeID identifies a node in the network.
type NodeID int

// UDPOverhead is the per-packet wire overhead we charge for Ethernet + IP +
// UDP headers (14+20+8 plus preamble/FCS rounding).
const UDPOverhead = 46

// Packet is one datagram in flight. PMNet traffic carries a decoded
// protocol.Message; other traffic carries only Raw bytes. Either way the
// bytes are the packet's own: Raw is its one payload buffer, SetMsg copies a
// PMNet payload into it, and the buffer dies with the packet — FreePacket
// keeps its capacity for the next life. A receiver that keeps bytes past its
// callback copies them into storage of its own.
//
// A packet is in one place at a time — a host stack, a wire, a switch, a
// device pipeline, a CPU queue — and it is its own event record for the time
// it spends there, linked into the engine's wheel by the node it carries
// (tm): whoever holds it calls At or After with the function that takes it
// next, and holds it no longer. One wait at a time: only At and After set
// the continuation, it is cleared before it runs (so it may wait again, or
// free), and a second At or a FreePacket before then means two owners and
// panics.
type Packet struct {
	ID       uint64 // unique per network, for tracing
	From, To NodeID // source and final destination hosts
	SrcPort  uint16
	DstPort  uint16
	Tenant   uint16 // background-traffic tag (0 = workload traffic)
	PMNet    bool   // PMNet header present (dst port in reserved range)

	Msg protocol.Message // valid when PMNet is true; Msg.Payload is Raw when set by SetMsg
	Raw []byte           // the packet's payload buffer, kept across recycles

	SentAt sim.Time // when the sending host's app handed it to the stack
	Hops   int      // number of links traversed so far

	// Stamp is the waiter's to use: the generation it scheduled the wait
	// under, compared when the wait ends to drop a packet whose holder
	// restarted meanwhile. FreePacket zeroes it.
	Stamp uint64

	tm   sim.Timer     // the wheel node the packet waits on; kept across recycles
	wake func()        // fires then; bound once for the packet's life, kept across recycles
	then func(*Packet) // who takes the packet when its wait ends; nil = not waiting
	hop  NodeID        // the node a network wait delivers to (arrive) or transmits from (TransmitAfter)

	pool poolState // free-list lifecycle; zero for packets built with &Packet{}
	// home is the fabric partition whose pool owns this packet. A packet
	// handed off across partitions is freed on the receiving side, which
	// routes it back to its home pool at the next epoch barrier — otherwise
	// asymmetric traffic (one request in, R acks out) would drain one
	// partition's pool and grow another's without bound. Always 0 outside a
	// fabric.
	home int32
}

// poolState tracks a packet's position in the network free-list lifecycle.
// Packets constructed directly with &Packet{} (tests, external drivers) stay
// pkUnpooled and are ignored by FreePacket; pooled packets cycle between
// pkLive and pkFree, and freeing one twice panics — a double free means two
// owners, which would corrupt a reused packet silently.
type poolState uint8

const (
	pkUnpooled poolState = iota
	pkLive
	pkFree
)

// Size returns the bytes the packet occupies on the wire.
func (p *Packet) Size() int {
	if p.PMNet {
		return UDPOverhead + p.Msg.WireSize()
	}
	return UDPOverhead + len(p.Raw)
}

func (p *Packet) String() string {
	if p.PMNet {
		return fmt.Sprintf("pkt#%d %d->%d [%v]", p.ID, p.From, p.To, p.Msg.Hdr)
	}
	return fmt.Sprintf("pkt#%d %d->%d raw(%dB)", p.ID, p.From, p.To, len(p.Raw))
}

// At hands the packet to then at virtual time t on eng: the packet waits on
// its own wheel node, so the wait allocates nothing once wake is bound (at
// the first wait of the packet's life; recycling keeps it).
func (p *Packet) At(eng *sim.Engine, t sim.Time, then func(*Packet)) {
	p.tm.At(eng, t, p.wait(then))
}

// After is At, d from now.
func (p *Packet) After(eng *sim.Engine, d sim.Time, then func(*Packet)) {
	p.tm.After(eng, d, p.wait(then))
}

// wait records then as the packet's one continuation and returns the event
// callback that delivers it.
func (p *Packet) wait(then func(*Packet)) func() {
	if p.then != nil {
		panic("netsim: packet already waiting")
	}
	if p.wake == nil {
		p.wake = func() {
			then := p.then
			p.then = nil
			then(p)
		}
	}
	p.then = then
	return p.wake
}

// SetMsg makes the packet carry the PMNet message hdr + payload, the payload
// copied into the packet's own buffer: Msg.Payload is Raw afterwards. An
// encoder writes in place instead — pkt.Raw = x.AppendEncode(pkt.Raw[:0]),
// then pkt.SetMsg(hdr, pkt.Raw), which copies nothing new.
func (p *Packet) SetMsg(hdr protocol.Header, payload []byte) {
	p.Raw = append(p.Raw[:0], payload...)
	p.PMNet = true
	p.Msg = protocol.Message{Hdr: hdr, Payload: p.Raw}
}

// copyBytes gives p a copy of q's bytes in p's own buffer.
func (p *Packet) copyBytes(q *Packet) {
	if q.PMNet {
		p.SetMsg(q.Msg.Hdr, q.Msg.Payload)
		return
	}
	p.Raw = append(p.Raw[:0], q.Raw...)
}

// Clone returns a copy with a fresh identity and its own copy of the bytes,
// for a holder that keeps a packet past its receive callback. The copy is
// never pool-owned, regardless of the original, and never waiting: the
// original's wake would deliver the original, and its wheel node is linked
// where the original's is.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Hops = 0
	q.pool = pkUnpooled
	q.tm, q.wake, q.then = sim.Timer{}, nil, nil
	q.Raw = nil
	q.copyBytes(p)
	return &q
}

// Node is anything attached to the network. HandlePacket is invoked when a
// packet arrives at the node — whether the node is the final destination or
// an intermediate device that must decide to forward it.
type Node interface {
	ID() NodeID
	HandlePacket(pkt *Packet)
}
