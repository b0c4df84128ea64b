package openloop

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pmnet/internal/client"
	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/workload"
)

// streamDigest hashes a request stream: op kind, Update/Retry flags and every
// argument byte (length-prefixed, so argument boundaries count).
func streamDigest(ops []workload.Op) string {
	h := sha256.New()
	var n [4]byte
	for _, op := range ops {
		flags := byte(0)
		if op.Update {
			flags |= 1
		}
		if op.Retry {
			flags |= 2
		}
		h.Write([]byte{byte(op.Req.Op), flags, byte(len(op.Req.Args))})
		for _, a := range op.Req.Args {
			binary.BigEndian.PutUint32(n[:], uint32(len(a)))
			h.Write(n[:])
			h.Write(a)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRequestStreamDigests holds the one definition of each application to
// the request streams recorded at commit 13864e8, when the closed loop
// (workload.NewTwitter, NewTPCC) and the open loop (NewTwitterMix) each had
// their own: same ops, flags and argument bytes in the same order, for the
// harness's configurations. Open-loop TPCC is absent on purpose — its old
// copy had drifted from the calibrated transaction and was not kept.
func TestRequestStreamDigests(t *testing.T) {
	const users = 1000000
	closed := func(g workload.Generator) []workload.Op {
		ops := make([]workload.Op, 5000)
		for i := range ops {
			// An Op is valid until the next Next: keep a copy of its bytes.
			op := g.Next()
			args := make([][]byte, len(op.Req.Args))
			for j, a := range op.Req.Args {
				args[j] = append([]byte(nil), a...)
			}
			op.Req.Args = args
			ops[i] = op
		}
		return ops
	}
	for i, want := range []struct{ twitter, tpcc, twitterMix string }{
		{"d64ca27661a10c208c5f0fbd024f39335bac46e29e10de29a07fc87aba628e71",
			"9a547dd936ada57083111caacced65b705c7fd4069d68eb308b977f839d456e1",
			"9cb3a769705f293e3a3e7f051cf2f34a68f65c5c996ce3ecf9df33a46789078f"},
		{"8205ce660095f9b985e1a506d98e74b0133792d1baed03ff9ec972d926c757b3",
			"ca2ab3845b3fe4fbe0006a9f3025a1eed802657d957d26b9c159ae63d58e6440",
			"cee5e1600a695cfd0dc48910477b7b55e921db83c59268eb8b91c544d57e95df"},
		{"0bfbaacf7edb1131f5797d735d3b180b0778a0ba3d566ed60ef36167f705863d",
			"e84e56a39929d6904b860e67ceccd077a20368826cb02fa2d47f7a9a6fd824ee",
			"ef5d73bf962bbea5676fe39fd04d0161ec05776c3d68e96b1f59738b38d76a23"},
	} {
		seed, clientID, ratio := uint64(i+1), []int{0, 5, 15}[i], []float64{1.0, 0.5, 0.25}[i]
		got := streamDigest(closed(workload.NewTwitter(sim.NewRand(seed), clientID,
			workload.TwitterConfig{Users: 1000, UpdateRatio: ratio, PostLen: 100})))
		if got != want.twitter {
			t.Errorf("seed %d: closed-loop twitter stream %s, recorded %s", seed, got, want.twitter)
		}
		got = streamDigest(closed(workload.NewTPCC(sim.NewRand(seed), clientID,
			workload.TPCCConfig{UpdateRatio: ratio})))
		if got != want.tpcc {
			t.Errorf("seed %d: closed-loop tpcc stream %s, recorded %s", seed, got, want.tpcc)
		}
		r, mix := sim.NewRand(seed), NewTwitterMix(users, 0.4, 100)
		var ops []workload.Op
		for seq := uint64(1); seq <= 2000; seq++ {
			ops = mix.Action(r, r.Intn(users), seq, ops)
		}
		if got = streamDigest(ops); got != want.twitterMix {
			t.Errorf("seed %d: open-loop twitter stream %s, recorded %s", seed, got, want.twitterMix)
		}
	}
}

// farNode plays device and server (as in internal/workload's tests): it
// PMNet-ACKs every update and answers a bypass request with the status
// onBypass returns, or not at all when onBypass declines.
type farNode struct {
	id       netsim.NodeID
	net      *netsim.Network
	onBypass func(req protocol.Request) (st protocol.Status, answer bool)
	seen     []string // "op firstArg" of every bypass request, in arrival order
}

func (f *farNode) ID() netsim.NodeID { return f.id }
func (f *farNode) HandlePacket(pkt *netsim.Packet) {
	h := pkt.Msg.Hdr
	defer f.net.FreePacket(pkt)
	rh := protocol.Header{Type: protocol.TypePMNetACK, SessionID: h.SessionID, SeqNum: h.SeqNum, FragTotal: 1}
	var payload []byte
	if h.Type == protocol.TypeBypassReq {
		req, err := protocol.DecodeRequest(pkt.Msg.Payload)
		if err != nil {
			panic(err)
		}
		f.seen = append(f.seen, req.Op.String()+" "+string(req.Args[0]))
		st, answer := protocol.StatusOK, true
		if f.onBypass != nil {
			st, answer = f.onBypass(req)
		}
		if !answer {
			return
		}
		rh.Type = protocol.TypeReadResp
		payload = protocol.Response{Status: st}.Encode()
	}
	rh.Seal()
	out := f.net.AllocPacket()
	out.From, out.To = f.id, pkt.From
	out.SrcPort, out.DstPort = pkt.DstPort, pkt.SrcPort
	out.PMNet = true
	out.Msg = protocol.Message{Hdr: rh, Payload: payload}
	f.net.Transmit(out, f.id)
}

// listArrivals replays fixed arrival times, then reports exhaustion.
type listArrivals []sim.Time

func (l *listArrivals) Next() sim.Time {
	if len(*l) == 0 {
		return math.MaxInt64
	}
	t := (*l)[0]
	*l = (*l)[1:]
	return t
}

// fixedMix plays the same steps for every action.
type fixedMix []workload.Op

func (m fixedMix) Action(_ *sim.Rand, _ int, _ uint64, ops []workload.Op) []workload.Op {
	return append(ops, m...)
}

func newRig(mix Mix, maxInFlight int, arrivals ...sim.Time) (*sim.Engine, *Driver, *farNode) {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	host := netsim.NewHost(net, 1, "client", netsim.ClientKernelStack, 1, r.Fork())
	far := &farNode{id: 2, net: net}
	net.AddNode(far, "far")
	net.Connect(1, 2, netsim.DefaultLink())
	sess := client.New(host, client.Config{Session: 1, Server: 2, Mode: client.ModePMNet, RequiredAcks: 1,
		Timeout: 200 * sim.Microsecond, MaxRetries: 2})
	arr := listArrivals(arrivals)
	d := New(Config{Users: 10, MaxInFlight: maxInFlight, Duration: sim.Second},
		sess, mix, &arr, r.Fork(), stats.NewRun(0), nil)
	return eng, d, far
}

var (
	lockL   = workload.Op{Req: protocol.LockReq([]byte("L")), Retry: true}
	unlockL = workload.Op{Req: protocol.UnlockReq([]byte("L"))}
	putK    = workload.Op{Req: protocol.PutReq([]byte("k"), []byte("v")), Update: true}
	getK    = workload.Op{Req: protocol.GetReq([]byte("k"))}
)

// TestFailedStepStillReleasesLock: a step that fails inside a lock bracket
// fails the action, but the steps after it — the release above all — still
// run, so a user whose read timed out does not leave the lock held.
func TestFailedStepStillReleasesLock(t *testing.T) {
	eng, d, far := newRig(fixedMix{lockL, getK, putK, unlockL}, 4, 0)
	far.onBypass = func(req protocol.Request) (protocol.Status, bool) {
		return protocol.StatusOK, req.Op != protocol.OpGet // the read is never answered
	}
	done := false
	d.OnDone(func() { done = true })
	d.Start(eng)
	eng.Run()
	// The read goes out 1 + MaxRetries times before the client gives up.
	if want := []string{"lock L", "get k", "get k", "get k", "unlock L"}; !reflect.DeepEqual(far.seen, want) {
		t.Fatalf("far side saw %v, want %v", far.seen, want)
	}
	st := d.Stats()
	if st.ActionsFailed != 1 || st.Actions != 0 || st.FailedReqs != 1 || st.Requests != 3 ||
		st.Updates != 1 || st.LockOps != 2 || st.Bypasses != 3 {
		t.Fatalf("stats %+v", st)
	}
	if !done || d.ActiveSessions() != 0 {
		t.Fatalf("driver not drained: done %v, %d sessions active", done, d.ActiveSessions())
	}
}

// TestRecycledActionReplays: with one action in flight at a time every
// arrival is played by the same pooled record. The first action exhausts its
// lock retries; the second meets one conflict and must get its retry — a
// retry count or step index carried over from the first would fail it.
func TestRecycledActionReplays(t *testing.T) {
	eng, d, far := newRig(fixedMix{lockL, unlockL}, 1, 0, 500*sim.Millisecond)
	locks := 0
	far.onBypass = func(req protocol.Request) (protocol.Status, bool) {
		if req.Op.String() != "lock" {
			return protocol.StatusOK, true
		}
		locks++
		// Action 1 sends 1 + MaxLockRetries acquires, all refused; action 2's
		// first is refused too, its second granted.
		if locks <= workload.MaxLockRetries+2 {
			return protocol.StatusLocked, true
		}
		return protocol.StatusOK, true
	}
	d.Start(eng)
	eng.Run()
	st := d.Stats()
	if st.Actions != 1 || st.ActionsFailed != 1 || st.LockRetries != workload.MaxLockRetries+1 ||
		st.FailedReqs != 1 || st.Requests != 3 || st.Shed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.PeakActive != 1 || len(d.freeAct) != 1 {
		t.Fatalf("peak %d active, %d pooled: the second action did not reuse the first's record", st.PeakActive, len(d.freeAct))
	}
	if last := far.seen[len(far.seen)-1]; last != "unlock L" {
		t.Fatalf("last request %q, want the second action's release", last)
	}
}

// TestArrivalsPastCapAreShed: an arrival that finds MaxInFlight actions
// active is dropped and counted, never queued — nothing of it is issued
// later, when capacity frees.
func TestArrivalsPastCapAreShed(t *testing.T) {
	eng, d, _ := newRig(fixedMix{putK, putK, putK}, 2, 0, 1, 2, 3)
	d.Start(eng)
	eng.Run()
	st := d.Stats()
	if st.Offered != 4 || st.Admitted != 2 || st.Shed != 2 || st.PeakActive != 2 {
		t.Fatalf("admission %+v", st)
	}
	if st.Actions != 2 || st.Requests != 6 || st.Updates != 6 {
		t.Fatalf("shed arrivals were played: %+v", st)
	}
}

// TestOpenLoopStepAllocs pins one open-loop request step — issue, PMNet-ACK,
// completion, next step of the action — to what a closed-loop step costs
// (workload.TestDriverStepAllocs): the client's one allocation, the encoded
// payload. The stepper's callbacks are bound once per pooled action; a
// closure per request or per retry would show here.
func TestOpenLoopStepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	const warm, runs = 16, 100
	steps := make(fixedMix, warm+runs+8)
	for i := range steps {
		steps[i] = putK
	}
	eng, d, _ := newRig(steps, 1, 0)
	d.Start(eng)
	step := func() {
		for n := d.st.Requests; d.st.Requests == n; {
			eng.Step()
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if got := testing.AllocsPerRun(runs, step); got != 1 {
		t.Errorf("open-loop step allocated %.1f objects, want 1 (the payload)", got)
	}
	if st := d.Stats(); st.Updates < warm+runs || st.FailedReqs != 0 {
		t.Fatalf("action not exercised: %+v", st)
	}
}

// TestOpenLoopArrivalAllocs pins the arrival event — schedule the next
// arrival, pick the user, take a pooled action, draw the retwis steps into its
// ops, issue the first — to that step's payload. The arrival callback is bound
// once in Start, the action and the storage of its ops are recycled, and the
// mix formats its keys in place; a method value per arrival, a key string or
// an argument array would show here.
func TestOpenLoopArrivalAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are unreliable under the race detector")
	}
	const warm, runs = 64, 200
	arrivals := make([]sim.Time, warm+runs)
	for i := range arrivals {
		arrivals[i] = sim.Time(i+1) * sim.Millisecond // every action drains before the next arrives
	}
	eng, d, _ := newRig(NewTwitterMix(10, 0.4, 100), 4, arrivals...)
	d.Start(eng)
	var before, after runtime.MemStats
	var mallocs uint64
	for i, at := range arrivals {
		eng.RunThrough(at - 1) // the action before this arrival, to its end
		if next, ok := eng.NextTime(); !ok || next != at || eng.Pending() != 1 {
			t.Fatalf("arrival %d is not the one event pending: next at %d, %d pending", i, next, eng.Pending())
		}
		runtime.ReadMemStats(&before)
		eng.Step()
		runtime.ReadMemStats(&after)
		if i >= warm {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	eng.Run()
	if st := d.Stats(); st.Actions != warm+runs || st.PeakActive != 1 || st.Shed != 0 {
		t.Fatalf("arrivals not played one at a time: %+v", st)
	}
	// A few stray allocations by the runtime do not fail the pin; a second
	// object per arrival, or on every fourth, does.
	if mallocs < runs || mallocs >= runs+runs/4 {
		t.Errorf("%d arrivals allocated %d objects, want one each (the first step's payload)", runs, mallocs)
	}
}
