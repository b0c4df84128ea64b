package client

// Allocation pin + micro-benchmark for the client round trip. A request
// rides a pooled pending record whose fragments are built in place; the one
// allocation left is the encoded payload, which no owner can recycle (see
// protocol.Message.Payload).

import (
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// ackNode answers every update with a PMNet-ACK, then its server-ACK, and
// every bypass request with one fixed read response, and recycles the packet
// — a far side that itself allocates nothing.
type ackNode struct {
	id       netsim.NodeID
	net      *netsim.Network
	readResp []byte // encoded once; payloads are immutable, so every reply may carry it
}

func (a *ackNode) ID() netsim.NodeID { return a.id }
func (a *ackNode) HandlePacket(pkt *netsim.Packet) {
	switch pkt.Msg.Hdr.Type {
	case protocol.TypeUpdateReq:
		a.reply(pkt, protocol.TypePMNetACK, nil)
		a.reply(pkt, protocol.TypeServerACK, nil)
	case protocol.TypeBypassReq:
		a.reply(pkt, protocol.TypeReadResp, a.readResp)
	}
	a.net.FreePacket(pkt)
}

func (a *ackNode) reply(req *netsim.Packet, typ protocol.Type, payload []byte) {
	h := req.Msg.Hdr
	ack := protocol.Header{Type: typ, SessionID: h.SessionID, SeqNum: h.SeqNum,
		FragIdx: h.FragIdx, FragTotal: h.FragTotal}
	ack.Seal()
	out := a.net.AllocPacket()
	out.From, out.To = a.id, req.From
	out.SrcPort, out.DstPort = req.DstPort, req.SrcPort
	out.PMNet = true
	out.Msg = protocol.Message{Hdr: ack, Payload: payload}
	a.net.Transmit(out, a.id)
}

type roundtripRig struct {
	eng  *sim.Engine
	sess *Session
	req  protocol.Request
	done func(Result)
	ok   int
}

func newRoundtripRig() *roundtripRig {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	host := netsim.NewHost(net, 1, "client", netsim.ClientKernelStack, 1, r.Fork())
	net.AddNode(&ackNode{id: 2, net: net, readResp: protocol.Response{Status: protocol.StatusOK,
		Args: [][]byte{[]byte("user00000001"), make([]byte, 100)}}.Encode()}, "far")
	net.Connect(1, 2, netsim.DefaultLink())
	rg := &roundtripRig{eng: eng,
		sess: New(host, Config{Session: 1, Server: 2, Mode: ModePMNet, RequiredAcks: 1}),
		req:  protocol.PutReq([]byte("user00000001"), make([]byte, 1000))}
	rg.done = func(res Result) {
		if res.Err == nil {
			rg.ok++
		}
	}
	return rg
}

func (rg *roundtripRig) round() {
	rg.sess.SendUpdate(rg.req, rg.done)
	rg.eng.Run()
}

// TestClientRoundtripAllocs pins SendUpdate → PMNet-ACK → callback to one
// steady-state allocation: the payload.
func TestClientRoundtripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newRoundtripRig()
	rg.round() // warm the pending pool, the maps and the route tables
	if got := testing.AllocsPerRun(100, rg.round); got != 1 {
		t.Errorf("update round trip allocated %.1f objects, want 1 (the payload)", got)
	}
	if st := rg.sess.Stats(); rg.ok == 0 || uint64(rg.ok) != st.UpdatesSent || st.PMNetAcks != st.UpdatesSent {
		t.Fatalf("path not exercised: %d completions, stats %+v", rg.ok, st)
	}
}

// TestReadResponseAllocs pins Bypass → read response → callback to the same
// one allocation, the request payload: the response decodes into the
// session's scratch, so completing a read allocates nothing.
func TestReadResponseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newRoundtripRig()
	get := protocol.GetReq([]byte("user00000001"))
	values := 0
	done := func(res Result) {
		if res.Err == nil && len(res.Args) == 2 && len(res.Value) == 100 {
			values++
		}
	}
	round := func() {
		rg.sess.Bypass(get, done)
		rg.eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 1 {
		t.Errorf("read round trip allocated %.1f objects, want 1 (the request payload)", got)
	}
	if st := rg.sess.Stats(); values == 0 || uint64(values) != st.BypassSent {
		t.Fatalf("path not exercised: %d values read, stats %+v", values, st)
	}
}

// BenchmarkClientRoundtrip measures one update from SendUpdate to its
// completion callback.
func BenchmarkClientRoundtrip(b *testing.B) {
	rg := newRoundtripRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
}
