package server

// Allocation pin + micro-benchmark for the ordered apply path, and the
// pool-reuse edge case around a crash. An in-order update on an idle session
// is handled straight from its packet, decoded into the session's argument
// scratch and completed through the session's one pre-bound apply record, so
// steady state allocates nothing; an out-of-order one is copied into a
// recycled session buffer and arms the session's pre-bound gap timer.

import (
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// sinkNode is a peer that counts the server-ACKs and read responses reaching
// it and recycles the packets — an endpoint that itself allocates nothing.
type sinkNode struct {
	id    netsim.NodeID
	net   *netsim.Network
	acks  int
	reads int
}

func (s *sinkNode) ID() netsim.NodeID { return s.id }
func (s *sinkNode) HandlePacket(pkt *netsim.Packet) {
	switch pkt.Msg.Hdr.Type {
	case protocol.TypeServerACK:
		s.acks++
	case protocol.TypeReadResp:
		s.reads++
	}
	s.net.FreePacket(pkt)
}

// applyRig feeds in-order single-fragment updates from a sink peer into a
// Server with the IdealHandler, from the RX stack to the server-ACK leaving
// the TX stack.
type applyRig struct {
	eng     *sim.Engine
	net     *netsim.Network
	peer    *sinkNode
	server  *Server
	payload []byte
	seq     uint32
}

func newApplyRig() *applyRig { return newRig(IdealHandler{}) }

func newRig(h Handler) *applyRig {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	rg := &applyRig{eng: eng, net: net, peer: &sinkNode{id: 1, net: net},
		payload: protocol.PutReq([]byte("user00000001"), make([]byte, 1000)).Encode()}
	net.AddNode(rg.peer, "peer")
	host := netsim.NewHost(net, 2, "server", netsim.ServerKernelStack, 16, r.Fork())
	net.Connect(1, 2, netsim.DefaultLink())
	rg.server = New(host, h, Config{})
	return rg
}

// send transmits one single-fragment request of the given type and drains
// the clock.
func (rg *applyRig) send(typ protocol.Type, seq uint32, payload []byte) {
	rg.transmit(typ, seq, payload)
	rg.eng.Run()
}

func (rg *applyRig) transmit(typ protocol.Type, seq uint32, payload []byte) {
	h := protocol.Header{Type: typ, SessionID: 1, SeqNum: seq, FragTotal: 1}
	h.Seal()
	pkt := rg.net.AllocPacket()
	pkt.From, pkt.To = 1, 2
	pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
	pkt.SetMsg(h, payload)
	rg.net.Transmit(pkt, 1)
}

func (rg *applyRig) round() {
	rg.seq++
	rg.send(protocol.TypeUpdateReq, rg.seq, rg.payload)
}

// TestServerApplyAllocs pins the in-order apply, through the server-ACK, to
// zero steady-state allocations.
func TestServerApplyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newApplyRig()
	rg.round() // warm the session, the pools and the route tables
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("in-order apply allocated %.1f objects per update, want 0", got)
	}
	if st := rg.server.Stats(); st.UpdatesApplied != uint64(rg.seq) || rg.peer.acks != int(rg.seq) {
		t.Fatalf("path not exercised: %d sent, %d acked, stats %+v", rg.seq, rg.peer.acks, st)
	}
}

// TestGapArmAllocs pins an out-of-order arrival — parked in the reorder
// buffer, the session's gap timer armed, then drained by the update it was
// waiting for — to zero steady-state allocations: the timer's callback is
// bound with the session, not per arm.
func TestGapArmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newApplyRig()
	round := func() {
		parked := rg.server.Stats().Buffered
		rg.transmit(protocol.TypeUpdateReq, rg.seq+2, rg.payload)
		for rg.server.Stats().Buffered == parked {
			rg.eng.Step()
		}
		rg.send(protocol.TypeUpdateReq, rg.seq+1, rg.payload) // fills the gap before the timer fires
		rg.seq += 2
	}
	round() // warm the session, its reorder map, the pools and the route tables
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("out-of-order arrival allocated %.1f objects per pair, want 0", got)
	}
	if st := rg.server.Stats(); st.UpdatesApplied != uint64(rg.seq) || st.Reordered != uint64(rg.seq)/2 ||
		st.RetransSent != 0 || rg.peer.acks != int(rg.seq) {
		t.Fatalf("path not exercised: %d sent, %d acked, stats %+v", rg.seq, rg.peer.acks, st)
	}
}

// TestReadResponseAllocs pins a served read — decode, Handle, the CPU wait,
// the response on the wire — to zero allocations: the handler builds its Args
// in scratch, and the library encodes them at once into the pooled response
// packet, which carries them across the CPU time.
func TestReadResponseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	value := make([]byte, 100)
	var scratch [][]byte
	rg := newRig(HandlerFunc(func(req protocol.Request) (protocol.Response, sim.Time) {
		scratch = append(scratch[:0], req.Args[0], value)
		return protocol.Response{Status: protocol.StatusOK, Args: scratch}, 10 * sim.Microsecond
	}))
	get := protocol.GetReq([]byte("user00000001")).Encode()
	round := func() {
		rg.seq++
		rg.send(protocol.TypeBypassReq, 1<<31|rg.seq, get)
	}
	round() // warm the session, the packet pool and the route tables
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("served read allocated %.1f objects, want 0", got)
	}
	if st := rg.server.Stats(); st.ReadsServed != uint64(rg.seq) || rg.peer.reads != int(rg.seq) {
		t.Fatalf("path not exercised: %d sent, %d responses, stats %+v", rg.seq, rg.peer.reads, st)
	}
}

// BenchmarkServerApply measures one in-order update through the library.
func BenchmarkServerApply(b *testing.B) {
	rg := newApplyRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
}

// TestRunQueueKeepsCapacity: a session that is popped as fast as it is
// pushed must reuse its queue's backing array, and one that never quite
// drains must not grow without bound.
func TestRunQueueKeepsCapacity(t *testing.T) {
	var st sessState
	st.push(query{firstSeq: 1})
	if q := st.pop(); q.firstSeq != 1 || len(st.queue) != 0 || st.qhead != 0 {
		t.Fatalf("pop: %+v, queue len %d head %d", q, len(st.queue), st.qhead)
	}
	first := &st.queue[:1][0]
	for seq := uint32(2); seq < 100; seq++ {
		st.push(query{firstSeq: seq})
		if q := st.pop(); q.firstSeq != seq {
			t.Fatalf("pop %d: got %d", seq, q.firstSeq)
		}
	}
	if &st.queue[:1][0] != first {
		t.Fatal("drained queue reallocated")
	}
	// Depth oscillates between 1 and 2 and never reaches 0.
	st.push(query{firstSeq: 1000})
	for seq := uint32(1001); seq < 2000; seq++ {
		st.push(query{firstSeq: seq})
		if q := st.pop(); q.firstSeq != seq-1 {
			t.Fatalf("FIFO broken at %d: got %d", seq, q.firstSeq)
		}
	}
	if cap(st.queue) > 8 {
		t.Fatalf("queue of depth ≤ 2 grew to capacity %d", cap(st.queue))
	}
}

// TestCrashWithApplyRecordOnCPU: a crash while a session's apply record sits
// in the CPU queue, then an immediate recovery and a resend. The stale
// record fires while the new session's own apply is in flight: it must see
// the generation mismatch and do nothing, and the new session — a fresh
// record, not the stale one — must acknowledge exactly once, at its own time.
func TestCrashWithApplyRecordOnCPU(t *testing.T) {
	h := HandlerFunc(func(protocol.Request) (protocol.Response, sim.Time) {
		return protocol.Response{Status: protocol.StatusOK}, 50 * sim.Microsecond
	})
	rig := newSrvRig(t, h, Config{})
	rig.sendUpdate(1, 1, putPayload("k1"))
	rig.eng.RunUntil(10 * sim.Microsecond) // handled at ~3 µs, on the CPU until ~53 µs
	stale := rig.server.sess[1]
	if stale == nil || !stale.busy {
		t.Fatal("setup: no apply record on the CPU")
	}
	rig.server.Crash()
	rig.server.Recover()
	rig.sendUpdate(1, 1, putPayload("k1")) // the client's resend
	rig.eng.RunUntil(40 * sim.Microsecond)
	fresh := rig.server.sess[1]
	if fresh == nil || fresh == stale || !fresh.busy {
		t.Fatalf("resend not running on a fresh session (fresh=%p stale=%p)", fresh, stale)
	}
	rig.eng.RunUntil(58 * sim.Microsecond) // the stale record has fired by now
	if n := len(rig.recv[protocol.TypeServerACK]); n != 0 || rig.server.Stats().UpdatesApplied != 0 || !fresh.busy {
		t.Fatalf("stale apply record acted: %d ACKs, stats %+v", n, rig.server.Stats())
	}
	rig.eng.Run()
	if n := len(rig.recv[protocol.TypeServerACK]); n != 1 {
		t.Fatalf("%d server-ACKs, want 1", n)
	}
	if st := rig.server.Stats(); st.UpdatesApplied != 1 || rig.server.lastApplied(1) != 1 {
		t.Fatalf("resend not applied once: stats %+v watermark %d", st, rig.server.lastApplied(1))
	}
}

// TestReadRecordsAcrossCrashAndOverlap: two reads of one session overlap on
// the CPU (bypass requests are not serialized), each waiting as its own
// response packet with its own payload, while the handler reuses one Args
// array and one value buffer for both (the library has encoded a response
// before the handler can be called again); then a crash strands a third on
// the CPU — it must never be answered nor counted, its packet must go back
// to the pool, and the next read after recovery is served exactly once.
func TestReadRecordsAcrossCrashAndOverlap(t *testing.T) {
	var scratch [][]byte
	var value []byte
	h := HandlerFunc(func(req protocol.Request) (protocol.Response, sim.Time) {
		value = append(append(value[:0], "v-"...), req.Args[0]...)
		scratch = append(scratch[:0], req.Args[0], value)
		return protocol.Response{Status: protocol.StatusOK, Args: scratch}, 50 * sim.Microsecond
	})
	rig := newSrvRig(t, h, Config{})
	get := func(seq uint32, key string) {
		rig.sendBypass(1, 1<<31|seq, protocol.GetReq([]byte(key)).Encode())
	}
	get(1, "a")
	get(2, "b")
	rig.eng.Run()
	resps := rig.recv[protocol.TypeReadResp]
	if len(resps) != 2 {
		t.Fatalf("%d read responses, want 2", len(resps))
	}
	for i, want := range []string{"a", "b"} {
		resp, err := protocol.DecodeResponse(resps[i].Msg.Payload)
		if err != nil || len(resp.Args) != 2 || string(resp.Args[0]) != want || string(resp.Args[1]) != "v-"+want {
			t.Fatalf("response %d: %q, %v; want key %q", i, resp.Args, err, want)
		}
	}
	// The rig's requests are unpooled, so the pool holds response packets only.
	if n := rig.net.PooledPackets(); n != 2 {
		t.Fatalf("%d packets pooled after two overlapping reads, want 2", n)
	}

	get(3, "c")
	rig.eng.RunUntil(rig.eng.Now() + 10*sim.Microsecond) // handled, on the CPU
	if n := rig.net.PooledPackets(); n != 1 {
		t.Fatalf("setup: %d packets pooled with one response on the CPU, want 1", n)
	}
	rig.server.Crash()
	rig.server.Recover()
	rig.eng.Run() // the stranded response wakes into the new generation
	if n := len(rig.recv[protocol.TypeReadResp]); n != 2 || rig.server.Stats().ReadsServed != 2 {
		t.Fatalf("stale read answered: %d responses, stats %+v", n, rig.server.Stats())
	}
	if n := rig.net.PooledPackets(); n != 2 {
		t.Fatalf("stale response not recycled: %d packets pooled", n)
	}
	get(4, "d")
	rig.eng.Run()
	if n := len(rig.recv[protocol.TypeReadResp]); n != 3 || rig.server.Stats().ReadsServed != 3 {
		t.Fatalf("read after recovery: %d responses, stats %+v", n, rig.server.Stats())
	}
}
