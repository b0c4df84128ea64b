package server

import (
	"bytes"
	"fmt"
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// srvRig wires a scriptable client host to a Server under test.
type srvRig struct {
	eng    *sim.Engine
	net    *netsim.Network
	peer   *netsim.Host // plays the client
	server *Server
	// packets the peer received, by type
	recv map[protocol.Type][]*netsim.Packet
}

func newSrvRig(t *testing.T, h Handler, cfg Config) *srvRig {
	t.Helper()
	eng := sim.NewEngine()
	r := sim.NewRand(11)
	net := netsim.New(eng, r.Fork())
	stack := netsim.StackModel{Base: 1 * sim.Microsecond}
	rig := &srvRig{eng: eng, net: net, recv: make(map[protocol.Type][]*netsim.Packet)}
	rig.peer = netsim.NewHost(net, 1, "peer", stack, 1, r.Fork())
	serverHost := netsim.NewHost(net, 2, "server", stack, 4, r.Fork())
	net.Connect(1, 2, netsim.LinkConfig{PropDelay: sim.Microsecond, Bandwidth: 10e9})
	if h == nil {
		h = IdealHandler{}
	}
	rig.server = New(serverHost, h, cfg)
	rig.peer.OnReceive(func(p *netsim.Packet) {
		if p.PMNet {
			rig.recv[p.Msg.Hdr.Type] = append(rig.recv[p.Msg.Hdr.Type], p.Clone())
		}
	})
	return rig
}

// sendUpdate sends one single-fragment update from the peer.
func (rig *srvRig) sendUpdate(sess uint16, seq uint32, payload []byte) {
	rig.sendMsg(sess, protocol.Fragment(protocol.TypeUpdateReq, sess, seq, payload, 0)[0])
}

// sendMsg sends msg from the peer on a pooled packet that carries its own
// copy of the bytes, as a client's does: the server's host frees it when the
// receive callback returns, and the peer's next send takes it from the pool
// and writes over them.
func (rig *srvRig) sendMsg(sess uint16, msg protocol.Message) {
	pkt := rig.net.AllocPacket()
	pkt.To, pkt.SrcPort, pkt.DstPort = 2, 40000+sess, protocol.PortMin
	pkt.SetMsg(msg.Hdr, msg.Payload)
	rig.peer.Send(pkt)
}

func (rig *srvRig) sendBypass(sess uint16, seq uint32, payload []byte) {
	msg := protocol.Fragment(protocol.TypeBypassReq, sess, seq, payload, 0)[0]
	rig.peer.Send(&netsim.Packet{
		To: 2, SrcPort: 40000 + sess, DstPort: protocol.PortMin, PMNet: true, Msg: msg,
	})
}

// orderHandler records the order in which update payloads execute, and the
// value each carried. Each update costs cost of CPU (0 = 2 µs).
type orderHandler struct {
	order, values []string
	cost          sim.Time
}

func (h *orderHandler) Handle(req protocol.Request) (protocol.Response, sim.Time) {
	if req.Op == protocol.OpPut {
		h.order = append(h.order, string(req.Args[0]))
		h.values = append(h.values, string(req.Args[1]))
	}
	if h.cost == 0 {
		return protocol.Response{Status: protocol.StatusOK}, 2 * sim.Microsecond
	}
	return protocol.Response{Status: protocol.StatusOK}, h.cost
}

func putPayload(key string) []byte {
	return protocol.PutReq([]byte(key), []byte("v")).Encode()
}

// TestInOrderUpdatesAppliedAndAcked: updates are applied in order and each
// is acknowledged. Each handle takes 20 µs and the peer sends every 5 µs, so
// all but the first wait in the session's run queue while the packets they
// came in are freed and reused by the peer's next send: each must still be
// handled with its own bytes.
func TestInOrderUpdatesAppliedAndAcked(t *testing.T) {
	h := &orderHandler{cost: 20 * sim.Microsecond}
	rig := newSrvRig(t, h, Config{})
	for i := 1; i <= 5; i++ {
		rig.sendUpdate(1, uint32(i), protocol.PutReq([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("value-%d", i))).Encode())
		rig.eng.RunUntil(rig.eng.Now() + 5*sim.Microsecond)
	}
	if st := rig.server.sess[1]; st == nil || len(st.queue)-st.qhead < 2 {
		t.Fatal("setup: updates are not waiting in the session's run queue")
	}
	rig.eng.Run()
	if len(h.order) != 5 {
		t.Fatalf("applied %d", len(h.order))
	}
	for i, k := range h.order {
		if k != fmt.Sprintf("k%d", i+1) || h.values[i] != fmt.Sprintf("value-%d", i+1) {
			t.Fatalf("order %v, values %v", h.order, h.values)
		}
	}
	if got := len(rig.recv[protocol.TypeServerACK]); got != 5 {
		t.Fatalf("acks %d", got)
	}
	if rig.server.Stats().UpdatesApplied != 5 {
		t.Fatalf("stats %+v", rig.server.Stats())
	}
}

// TestOutOfOrderUpdatesReordered: updates that arrive ahead of a gap are
// parked in the reorder buffer and applied, with their own bytes, once the
// gap fills — though the packets they came in were freed and reused by the
// later sends.
func TestOutOfOrderUpdatesReordered(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	// Inject 3,1,2 with small gaps so they arrive out of order.
	rig.sendUpdate(1, 3, putPayload("k3"))
	rig.eng.RunUntil(10 * sim.Microsecond)
	rig.sendUpdate(1, 1, putPayload("k1"))
	rig.eng.RunUntil(20 * sim.Microsecond)
	rig.sendUpdate(1, 2, putPayload("k2"))
	rig.eng.Run()
	want := []string{"k1", "k2", "k3"}
	if len(h.order) != 3 {
		t.Fatalf("applied %d", len(h.order))
	}
	for i := range want {
		if h.order[i] != want[i] || h.values[i] != "v" {
			t.Fatalf("order %v values %v, want %v (Fig. 7a reordering)", h.order, h.values, want)
		}
	}
	if rig.server.Stats().Reordered == 0 {
		t.Fatal("reordering not counted")
	}
}

func TestDuplicateDroppedWithMakeupAck(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	rig.sendUpdate(1, 1, putPayload("k1"))
	rig.eng.RunUntil(100 * sim.Microsecond)
	rig.sendUpdate(1, 1, putPayload("k1")) // resend of an applied update
	rig.eng.Run()
	if len(h.order) != 1 {
		t.Fatalf("duplicate applied: %v", h.order)
	}
	st := rig.server.Stats()
	if st.Duplicates != 1 || st.MakeupAcks != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Two ACKs total: the original and the make-up (§IV-E1).
	if got := len(rig.recv[protocol.TypeServerACK]); got != 2 {
		t.Fatalf("acks %d, want 2", got)
	}
}

func TestGapTriggersRetrans(t *testing.T) {
	rig := newSrvRig(t, nil, Config{GapTimeout: 30 * sim.Microsecond})
	rig.sendUpdate(1, 2, putPayload("k2")) // seq 1 missing
	rig.eng.RunUntil(200 * sim.Microsecond)
	rets := rig.recv[protocol.TypeRetrans]
	if len(rets) == 0 {
		t.Fatal("no Retrans for the gap")
	}
	if rets[0].Msg.Hdr.SeqNum != 1 {
		t.Fatalf("Retrans for seq %d, want 1", rets[0].Msg.Hdr.SeqNum)
	}
	// Fill the gap: both apply, Retrans stops.
	rig.sendUpdate(1, 1, putPayload("k1"))
	rig.eng.Run()
	if rig.server.Stats().UpdatesApplied != 2 {
		t.Fatalf("applied %d", rig.server.Stats().UpdatesApplied)
	}
}

func TestBypassServedImmediatelyDespiteUpdateGap(t *testing.T) {
	seen := 0
	h := HandlerFunc(func(req protocol.Request) (protocol.Response, sim.Time) {
		if req.Op == protocol.OpGet {
			seen++
			return protocol.Response{Status: protocol.StatusOK,
				Args: [][]byte{req.Args[0], []byte("val")}}, sim.Microsecond
		}
		return protocol.Response{Status: protocol.StatusOK}, sim.Microsecond
	})
	rig := newSrvRig(t, h, Config{GapTimeout: sim.Millisecond})
	rig.sendUpdate(1, 5, putPayload("k5")) // big gap: updates stall
	rig.sendBypass(1, 1|1<<31, protocol.GetReq([]byte("x")).Encode())
	rig.eng.RunUntil(500 * sim.Microsecond)
	if seen != 1 {
		t.Fatal("read blocked behind update gap")
	}
	if len(rig.recv[protocol.TypeReadResp]) != 1 {
		t.Fatal("no read response")
	}
}

func TestWatermarkSurvivesCrash(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	for i := 1; i <= 3; i++ {
		rig.sendUpdate(1, uint32(i), putPayload(fmt.Sprintf("k%d", i)))
	}
	rig.eng.RunUntil(sim.Millisecond)
	if rig.server.lastApplied(1) != 3 {
		t.Fatalf("watermark %d", rig.server.lastApplied(1))
	}
	rig.server.Crash()
	rig.server.Recover()
	rig.eng.RunUntil(2 * sim.Millisecond)
	if rig.server.lastApplied(1) != 3 {
		t.Fatal("watermark lost across crash")
	}
	// A replayed (logged) duplicate is suppressed.
	rig.sendUpdate(1, 2, putPayload("k2"))
	rig.eng.Run()
	if len(h.order) != 3 {
		t.Fatalf("replay re-applied: %v", h.order)
	}
	if rig.server.Stats().Duplicates != 1 {
		t.Fatalf("stats %+v", rig.server.Stats())
	}
}

func TestCrashDropsInFlightWork(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	rig.sendUpdate(1, 1, putPayload("k1"))
	// Crash while the request is inside the server (after ~3µs: stack+wire;
	// processing takes 2µs more).
	rig.eng.RunUntil(3*sim.Microsecond + 500*sim.Nanosecond)
	rig.server.Crash()
	rig.eng.Run()
	if len(h.order) != 0 && rig.server.lastApplied(1) != 0 {
		// Handler may have run before the crash boundary, but the watermark
		// must not have been persisted after Crash reverted it... the
		// decisive invariant: no server-ACK escaped.
		t.Logf("handler ran pre-crash; order=%v", h.order)
	}
	if len(rig.recv[protocol.TypeServerACK]) != 0 {
		t.Fatal("server-ACK escaped a crashed server")
	}
}

func TestRecoverPollsDevices(t *testing.T) {
	rig := newSrvRig(t, nil, Config{Devices: []netsim.NodeID{1}}) // peer poses as the device
	rig.server.Crash()
	rig.server.Recover()
	rig.eng.Run()
	polls := rig.recv[protocol.TypeRecoverReq]
	if len(polls) != 1 {
		t.Fatalf("recovery polls %d, want 1", len(polls))
	}
	if rig.server.Stats().Recoveries != 1 || rig.server.Stats().Crashes != 1 {
		t.Fatalf("stats %+v", rig.server.Stats())
	}
}

func TestCrashRestartHooks(t *testing.T) {
	crashed, restarted := false, false
	rig := newSrvRig(t, nil, Config{
		OnCrash:   func() { crashed = true },
		OnRestart: func() { restarted = true },
	})
	rig.server.Crash()
	if !crashed {
		t.Fatal("OnCrash not invoked")
	}
	rig.server.Recover()
	if !restarted {
		t.Fatal("OnRestart not invoked")
	}
}

// TestFragmentedQueryAppliedOnce: a PUT spread over several fragments is
// reassembled and applied once, with every fragment's bytes in place. Each
// fragment is delivered before the next is sent, so each comes in the pooled
// packet the one before it was freed into.
func TestFragmentedQueryAppliedOnce(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	value := bytes.Repeat([]byte("0123456789"), 300)
	payload := protocol.PutReq([]byte("big"), value).Encode()
	msgs := protocol.Fragment(protocol.TypeUpdateReq, 1, 1, payload, 1000)
	for _, m := range msgs {
		rig.sendMsg(1, m)
		rig.eng.Run()
	}
	if len(h.order) != 1 || h.order[0] != "big" || h.values[0] != string(value) {
		t.Fatalf("fragmented query applied %v", h.order)
	}
	// One server-ACK per fragment so every PMNet log entry is reclaimed.
	if got := len(rig.recv[protocol.TypeServerACK]); got != len(msgs) {
		t.Fatalf("acks %d, want %d", got, len(msgs))
	}
	if rig.server.lastApplied(1) != uint32(len(msgs)) {
		t.Fatalf("watermark %d, want %d", rig.server.lastApplied(1), len(msgs))
	}
}

func TestPerSessionIsolation(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{})
	rig.sendUpdate(1, 1, putPayload("a1"))
	rig.sendUpdate(2, 1, putPayload("b1"))
	rig.sendUpdate(2, 2, putPayload("b2"))
	rig.eng.Run()
	if len(h.order) != 3 {
		t.Fatalf("applied %d", len(h.order))
	}
	if rig.server.lastApplied(1) != 1 || rig.server.lastApplied(2) != 2 {
		t.Fatal("per-session watermarks wrong")
	}
}

// Property: for ANY arrival permutation of a session's updates, the server
// applies them in issue order, exactly once, with the watermark at the top.
func TestQuickAnyPermutationAppliesInOrder(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%12 + 2
		h := &orderHandler{}
		rig := newSrvRig(t, h, Config{GapTimeout: 20 * sim.Microsecond})
		// Build a permutation of [1..n].
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i + 1
		}
		r := sim.NewRand(seed)
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, seq := range perm {
			rig.sendUpdate(1, uint32(seq), putPayload(fmt.Sprintf("k%03d", seq)))
			rig.eng.RunUntil(rig.eng.Now() + 5*sim.Microsecond)
		}
		rig.eng.Run()
		if len(h.order) != n {
			return false
		}
		for i, k := range h.order {
			if k != fmt.Sprintf("k%03d", i+1) {
				return false
			}
		}
		return rig.server.lastApplied(1) == uint32(n)
	}
	if err := quickCheck(f, 60); err != nil {
		t.Error(err)
	}
}

// Property: duplicates at any position never cause a second application.
func TestQuickDuplicatesNeverReapply(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%8 + 2
		h := &orderHandler{}
		rig := newSrvRig(t, h, Config{GapTimeout: 20 * sim.Microsecond})
		r := sim.NewRand(seed)
		// Send each update once, plus random duplicates interleaved.
		for seq := 1; seq <= n; seq++ {
			rig.sendUpdate(1, uint32(seq), putPayload(fmt.Sprintf("k%03d", seq)))
			for r.Intn(3) == 0 {
				dup := uint32(r.Intn(seq) + 1)
				rig.sendUpdate(1, dup, putPayload(fmt.Sprintf("k%03d", dup)))
			}
			rig.eng.RunUntil(rig.eng.Now() + 40*sim.Microsecond)
		}
		rig.eng.Run()
		return len(h.order) == n
	}
	if err := quickCheck(f, 40); err != nil {
		t.Error(err)
	}
}

// quickCheck is a tiny deterministic harness (testing/quick's random
// function arguments are awkward for seeded rigs).
func quickCheck(f func(seed uint64, n uint8) bool, iters int) error {
	for i := 0; i < iters; i++ {
		if !f(uint64(i)*2654435761+1, uint8(i*37)) {
			return fmt.Errorf("property failed at iteration %d", i)
		}
	}
	return nil
}

func TestPermanentGapAbandonedAfterRetransLimit(t *testing.T) {
	h := &orderHandler{}
	rig := newSrvRig(t, h, Config{GapTimeout: 20 * sim.Microsecond, RetransLimit: 5})
	// seq 1 is permanently lost (its client died); 2 and 3 arrive.
	rig.sendUpdate(1, 2, putPayload("k2"))
	rig.sendUpdate(1, 3, putPayload("k3"))
	rig.eng.Run() // must drain: the gap is abandoned, not retried forever
	if got := len(rig.recv[protocol.TypeRetrans]); got == 0 || got > 6 {
		t.Fatalf("retrans sent %d times, want 1..6 (bounded)", got)
	}
	if rig.server.Stats().GapsAbandoned != 1 {
		t.Fatalf("stats %+v", rig.server.Stats())
	}
	// The buffered successors were applied in order after the jump.
	if len(h.order) != 2 || h.order[0] != "k2" || h.order[1] != "k3" {
		t.Fatalf("order %v", h.order)
	}
	// A very late arrival of the abandoned seq is treated as a duplicate
	// (no re-application, and a make-up ACK frees any log entry).
	rig.sendUpdate(1, 1, putPayload("k1"))
	rig.eng.Run()
	if len(h.order) != 2 {
		t.Fatalf("abandoned seq applied late: %v", h.order)
	}
}
