package client

import (
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// echoRig wires a client host to a scriptable peer that plays the roles of
// PMNet device and server by injecting packets back.
type echoRig struct {
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	peer *netsim.Host
	// every PMNet packet that reached the peer
	got []*netsim.Packet
	// auto-responses toggled by tests
	sendPMNetAck  bool
	ackCopies     int
	sendServerAck bool
	sendReadResp  bool
	dropAll       bool
}

func newEchoRig(t *testing.T) *echoRig {
	t.Helper()
	eng := sim.NewEngine()
	r := sim.NewRand(3)
	net := netsim.New(eng, r.Fork())
	stack := netsim.StackModel{Base: 1 * sim.Microsecond}
	rig := &echoRig{eng: eng, net: net, ackCopies: 1}
	rig.host = netsim.NewHost(net, 1, "client", stack, 1, r.Fork())
	rig.peer = netsim.NewHost(net, 2, "peer", stack, 1, r.Fork())
	net.Connect(1, 2, netsim.LinkConfig{PropDelay: sim.Microsecond, Bandwidth: 10e9})
	rig.peer.OnReceive(func(p *netsim.Packet) {
		if !p.PMNet || rig.dropAll {
			return
		}
		rig.got = append(rig.got, p.Clone())
		hdr := p.Msg.Hdr
		reply := func(typ protocol.Type, payload []byte) {
			h := protocol.Header{Type: typ, SessionID: hdr.SessionID, SeqNum: hdr.SeqNum,
				FragIdx: hdr.FragIdx, FragTotal: hdr.FragTotal}
			h.Seal()
			rig.peer.Send(&netsim.Packet{
				To: p.From, SrcPort: p.DstPort, DstPort: p.SrcPort, PMNet: true,
				Msg: protocol.Message{Hdr: h, Payload: payload},
			})
		}
		switch hdr.Type {
		case protocol.TypeUpdateReq:
			if rig.sendPMNetAck {
				for i := 0; i < rig.ackCopies; i++ {
					reply(protocol.TypePMNetACK, nil)
				}
			}
			if rig.sendServerAck {
				reply(protocol.TypeServerACK, nil)
			}
		case protocol.TypeBypassReq:
			if rig.sendReadResp {
				resp := protocol.Response{Status: protocol.StatusOK,
					Args: [][]byte{[]byte("k"), []byte("v")}}
				h := protocol.Header{Type: protocol.TypeReadResp, SessionID: hdr.SessionID,
					SeqNum: hdr.SeqNum - uint32(hdr.FragIdx), FragTotal: 1}
				h.Seal()
				rig.peer.Send(&netsim.Packet{
					To: p.From, SrcPort: p.DstPort, DstPort: p.SrcPort, PMNet: true,
					Msg: protocol.Message{Hdr: h, Payload: resp.Encode()},
				})
			}
		}
	})
	return rig
}

func (rig *echoRig) session(cfg Config) *Session {
	cfg.Server = 2
	cfg.Session = 1
	return New(rig.host, cfg)
}

func TestPMNetModeCompletesOnDeviceAck(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	s := rig.session(Config{Mode: ModePMNet})
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res = r })
	rig.eng.Run()
	if res.Err != nil || res.Status != protocol.StatusOK {
		t.Fatalf("update failed: %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatal("latency not measured")
	}
	if s.Outstanding() != 0 {
		t.Fatal("request leaked")
	}
}

func TestBaselineModeIgnoresPMNetAck(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true // only PMNet ACKs, no server ACK
	s := rig.session(Config{Mode: ModeBaseline, Timeout: 100 * sim.Microsecond, MaxRetries: 2})
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res = r })
	rig.eng.Run()
	// Without a server-ACK the baseline request must eventually fail.
	if res.Err == nil {
		t.Fatal("baseline completed on PMNet-ACK alone")
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestReplicationNeedsKAcks(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	rig.ackCopies = 2 // only two devices acked
	s := rig.session(Config{Mode: ModePMNet, RequiredAcks: 3,
		Timeout: 100 * sim.Microsecond, MaxRetries: 1})
	completed := false
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) {
		completed = r.Err == nil
	})
	rig.eng.RunUntil(90 * sim.Microsecond)
	if completed {
		t.Fatal("completed with 2/3 ACKs")
	}
	// Third ACK arrives late (e.g. from the recovered third device).
	rig.ackCopies = 3
	rig.eng.Run()
	// The retry resends; peer now acks 3 times → completes.
	if !completed {
		t.Fatal("never completed after third ACK")
	}
}

func TestTimeoutResendsAndEventuallyFails(t *testing.T) {
	rig := newEchoRig(t)
	rig.dropAll = true
	s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond, MaxRetries: 3})
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res = r })
	rig.eng.Run()
	if res.Err == nil {
		t.Fatal("request succeeded against a black hole")
	}
	if res.Resends != 4 { // MaxRetries+1 attempts counted
		t.Fatalf("resends = %d", res.Resends)
	}
	if s.Stats().Resends != 3 {
		t.Fatalf("stats.Resends = %d, want 3", s.Stats().Resends)
	}
}

func TestBypassCompletesOnReadResp(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendReadResp = true
	s := rig.session(Config{Mode: ModePMNet})
	var res Result
	s.Bypass(protocol.GetReq([]byte("k")), func(r Result) { res = r })
	rig.eng.Run()
	if res.Err != nil || string(res.Value) != "v" {
		t.Fatalf("read failed: %+v", res)
	}
	if res.FromCache {
		t.Fatal("server read marked as cache hit")
	}
}

func TestBypassSeqSpaceSeparateFromUpdates(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	rig.sendServerAck = true
	rig.sendReadResp = true
	s := rig.session(Config{Mode: ModePMNet})
	s.SendUpdate(protocol.PutReq([]byte("a"), []byte("1")), nil)
	s.Bypass(protocol.GetReq([]byte("a")), nil)
	s.SendUpdate(protocol.PutReq([]byte("b"), []byte("2")), nil)
	rig.eng.Run()
	var updSeqs, bypSeqs []uint32
	for _, p := range rig.got {
		switch p.Msg.Hdr.Type {
		case protocol.TypeUpdateReq:
			updSeqs = append(updSeqs, p.Msg.Hdr.SeqNum)
		case protocol.TypeBypassReq:
			bypSeqs = append(bypSeqs, p.Msg.Hdr.SeqNum)
		}
	}
	if len(updSeqs) != 2 || updSeqs[0] != 1 || updSeqs[1] != 2 {
		t.Fatalf("update seqs %v: reads must not consume update stream numbers", updSeqs)
	}
	if len(bypSeqs) != 1 || bypSeqs[0]&BypassSeqBit == 0 {
		t.Fatalf("bypass seqs %v must carry the bypass bit", bypSeqs)
	}
}

func TestRetransFromServerResendsFragment(t *testing.T) {
	rig := newEchoRig(t)
	s := rig.session(Config{Mode: ModePMNet, Timeout: 10 * sim.Millisecond})
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), nil)
	rig.eng.RunUntil(100 * sim.Microsecond)
	sentBefore := len(rig.got)

	// Server-style Retrans for seq 1.
	rh := protocol.Header{Type: protocol.TypeRetrans, SessionID: 1, SeqNum: 1, FragTotal: 1}
	rh.Seal()
	rig.peer.Send(&netsim.Packet{
		To: 1, SrcPort: protocol.PortMin, DstPort: 40001, PMNet: true,
		Msg: protocol.Message{Hdr: rh},
	})
	rig.eng.RunUntil(200 * sim.Microsecond)
	if len(rig.got) != sentBefore+1 {
		t.Fatalf("client did not resend on Retrans: %d → %d", sentBefore, len(rig.got))
	}
	if s.Stats().RetransServed != 1 {
		t.Fatal("RetransServed not counted")
	}
	s.Close()
}

func TestCloseFailsOutstanding(t *testing.T) {
	rig := newEchoRig(t)
	rig.dropAll = true
	s := rig.session(Config{Mode: ModePMNet, Timeout: sim.Second})
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res = r })
	s.Close()
	if res.Err == nil {
		t.Fatal("outstanding request survived Close")
	}
	// New requests fail immediately.
	var res2 Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res2 = r })
	if res2.Err == nil {
		t.Fatal("send on closed session succeeded")
	}
	rig.eng.Run()
}

func TestFragmentedUpdateNeedsAllFragmentAcks(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	s := rig.session(Config{Mode: ModePMNet, MTU: 200})
	payload := make([]byte, 500) // several fragments at MTU 200
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), payload), func(r Result) { res = r })
	rig.eng.Run()
	if res.Err != nil {
		t.Fatalf("fragmented update failed: %v", res.Err)
	}
	frags := 0
	for _, p := range rig.got {
		if p.Msg.Hdr.Type == protocol.TypeUpdateReq {
			frags++
		}
	}
	if frags < 3 {
		t.Fatalf("only %d fragments sent", frags)
	}
	if s.Stats().PMNetAcks != uint64(frags) {
		t.Fatalf("acks %d != fragments %d", s.Stats().PMNetAcks, frags)
	}
}

func TestForeignSessionPacketsIgnored(t *testing.T) {
	rig := newEchoRig(t)
	s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond, MaxRetries: 1})
	var res Result
	s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) { res = r })
	// ACK for a different session must not complete our request.
	h := protocol.Header{Type: protocol.TypePMNetACK, SessionID: 99, SeqNum: 1, FragTotal: 1}
	h.Seal()
	rig.peer.Send(&netsim.Packet{
		To: 1, SrcPort: protocol.PortMin, DstPort: 40001, PMNet: true,
		Msg: protocol.Message{Hdr: h},
	})
	rig.eng.Run()
	if res.Err == nil {
		t.Fatal("foreign-session ACK completed our request")
	}
}

// TestBackoffTimeoutSchedule pins the per-retry timeout sequence: doubling
// from Timeout, capped at BackoffCap, and the plain fixed schedule when
// Backoff is off.
func TestBackoffTimeoutSchedule(t *testing.T) {
	rig := newEchoRig(t)
	s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond,
		Backoff: true, BackoffCap: 400 * sim.Microsecond})
	want := []sim.Time{50, 100, 200, 400, 400, 400}
	for k, w := range want {
		if got := s.timeoutFor(k); got != w*sim.Microsecond {
			t.Errorf("timeoutFor(%d) = %v, want %v", k, got, w*sim.Microsecond)
		}
	}
	fixed := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond})
	for k := 0; k < 6; k++ {
		if got := fixed.timeoutFor(k); got != 50*sim.Microsecond {
			t.Errorf("fixed timeoutFor(%d) = %v, want 50µs", k, got)
		}
	}
}

// TestBackoffDefaultCap: enabling Backoff without a cap defaults to
// 32×Timeout.
func TestBackoffDefaultCap(t *testing.T) {
	rig := newEchoRig(t)
	s := rig.session(Config{Mode: ModePMNet, Timeout: 10 * sim.Microsecond, Backoff: true})
	if got := s.timeoutFor(10); got != 320*sim.Microsecond {
		t.Errorf("timeoutFor(10) = %v, want 320µs (32×Timeout cap)", got)
	}
}

// TestBackoffStretchesFailureTime: against a black hole, backoff must space
// retries out — same retry budget, strictly later final failure — while the
// default path keeps the exact fixed-timeout schedule (byte-identity of
// existing outputs depends on it).
func TestBackoffStretchesFailureTime(t *testing.T) {
	failTime := func(backoff bool) sim.Time {
		rig := newEchoRig(t)
		rig.dropAll = true
		s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond,
			MaxRetries: 3, Backoff: backoff})
		var failed sim.Time
		s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) {
			if r.Err == nil {
				t.Fatal("request succeeded against a black hole")
			}
			failed = rig.eng.Now()
		})
		rig.eng.Run()
		return failed
	}
	fixed := failTime(false)
	if fixed != 200*sim.Microsecond { // 4 attempts × 50µs, unchanged schedule
		t.Errorf("fixed-timeout failure at %v, want 200µs", fixed)
	}
	backed := failTime(true)
	if backed != 750*sim.Microsecond { // 50+100+200+400
		t.Errorf("backoff failure at %v, want 750µs", backed)
	}
}

// TestRecycledPendingTimerNeverZombies is the lazy-cancellation regression
// test at the client layer: finishing a request cancels its retransmission
// timer lazily (the dead node stays queued in the engine's wheel until
// swept), and the pending record — with its once-bound timerFn closure — is
// immediately recycled for the next request. If the dead timer fired anyway
// it would invoke onTimeout on the RECYCLED record and trigger a spurious
// resend for a request that never timed out. Drive many back-to-back
// requests whose completions land well before each timeout, then let the
// clock run far past every cancelled deadline: the resend counter must stay
// zero.
func TestRecycledPendingTimerNeverZombies(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond, MaxRetries: 3})
	completed := 0
	var issue func(n int)
	issue = func(n int) {
		if n == 0 {
			return
		}
		// Each completion recycles the pending record and immediately
		// reuses it, while the previous request's cancelled timer is still
		// parked in the wheel (its deadline is ~50µs out; the round trip is
		// a few µs).
		s.SendUpdate(protocol.PutReq([]byte("k"), []byte("v")), func(r Result) {
			if r.Err != nil {
				t.Fatalf("request failed: %v", r.Err)
			}
			completed++
			issue(n - 1)
		})
	}
	issue(64)
	rig.eng.Run()
	// Run far past the last cancelled deadline so every dead timer node has
	// been reached and discarded by the wheel.
	rig.eng.RunUntil(rig.eng.Now() + 10*50*sim.Microsecond)
	if completed != 64 {
		t.Fatalf("completed %d of 64", completed)
	}
	if got := s.Stats().Resends; got != 0 {
		t.Fatalf("zombie timers caused %d resends; every request completed promptly", got)
	}
	if s.Outstanding() != 0 {
		t.Fatal("requests leaked")
	}
	if got := rig.eng.Pending(); got != 0 {
		t.Fatalf("engine still reports %d live events after drain", got)
	}
}

// TestRecycledPendingEventIsInert: the Event of a finished request's
// retransmission timer, kept past the recycle of its pending record, cannot
// cancel the timer of the request that reuses the record — the record keeps
// its Timer across the recycle, so the generation that Event names is gone.
func TestRecycledPendingEventIsInert(t *testing.T) {
	rig := newEchoRig(t)
	rig.sendPMNetAck = true
	s := rig.session(Config{Mode: ModePMNet, Timeout: 50 * sim.Microsecond, MaxRetries: 3})
	only := func() *pending {
		if len(s.requests) != 1 {
			t.Fatalf("%d requests outstanding, want 1", len(s.requests))
		}
		for _, p := range s.requests {
			return p
		}
		return nil
	}
	put := protocol.PutReq([]byte("k"), []byte("v"))
	s.SendUpdate(put, nil)
	first := only()
	stale := first.timer
	rig.eng.Run()

	rig.dropAll = true
	var res Result
	s.SendUpdate(put, func(r Result) { res = r })
	if only() != first {
		t.Fatal("the second request did not reuse the first one's record")
	}
	stale.Cancel()
	if !first.tm.Pending() {
		t.Fatal("a stale Event cancelled the recycled record's retransmission timer")
	}
	rig.eng.Run()
	if st := s.Stats(); st.Resends != 3 || st.Failed != 1 || res.Err == nil {
		t.Fatalf("stats %+v, result %+v: want 3 resends and a failure", st, res)
	}
}
