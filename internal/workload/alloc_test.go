package workload

// Allocation pin for the closed-loop driver's step, and the lock-retry edge
// case of keeping one current op. The driver refills one Op in place from
// *YCSB and completes through callbacks bound once in Run, so a step costs
// only what the client costs: nothing.

import (
	"testing"

	"pmnet/internal/client"
	"pmnet/internal/netsim"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// farNode plays device and server: it PMNet-ACKs every update and hands
// bypass requests to onBypass, which returns the response status. A mute
// node answers nothing, so requests time out.
type farNode struct {
	id       netsim.NodeID
	net      *netsim.Network
	onBypass func(payload []byte) protocol.Status
	mute     bool
}

func (f *farNode) ID() netsim.NodeID { return f.id }
func (f *farNode) HandlePacket(pkt *netsim.Packet) {
	if f.mute {
		f.net.FreePacket(pkt)
		return
	}
	h := pkt.Msg.Hdr
	out := f.net.AllocPacket()
	out.From, out.To = f.id, pkt.From
	out.SrcPort, out.DstPort = pkt.DstPort, pkt.SrcPort
	out.PMNet = true
	switch h.Type {
	case protocol.TypeUpdateReq:
		ack := protocol.Header{Type: protocol.TypePMNetACK, SessionID: h.SessionID, SeqNum: h.SeqNum, FragTotal: 1}
		ack.Seal()
		out.Msg = protocol.Message{Hdr: ack}
	case protocol.TypeBypassReq:
		rh := protocol.Header{Type: protocol.TypeReadResp, SessionID: h.SessionID, SeqNum: h.SeqNum, FragTotal: 1}
		rh.Seal()
		out.Msg = protocol.Message{Hdr: rh,
			Payload: protocol.Response{Status: f.onBypass(pkt.Msg.Payload)}.Encode()}
	}
	f.net.Transmit(out, f.id)
	f.net.FreePacket(pkt)
}

func newDriverRig(gen Generator) (*sim.Engine, *Driver, *farNode) {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	host := netsim.NewHost(net, 1, "client", netsim.ClientKernelStack, 1, r.Fork())
	far := &farNode{id: 2, net: net}
	net.AddNode(far, "far")
	net.Connect(1, 2, netsim.DefaultLink())
	sess := client.New(host, client.Config{Session: 1, Server: 2, Mode: client.ModePMNet, RequiredAcks: 1})
	return eng, &Driver{Sess: sess, Gen: gen}, far
}

// TestDriverStepAllocs pins one closed-loop step on *YCSB — draw, issue,
// PMNet-ACK, completion, next draw — to zero allocations.
func TestDriverStepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	gen := NewYCSB(sim.NewRand(2), YCSBConfig{Keys: 2000, UpdateRatio: 1, ValueSize: 1000})
	eng, d, _ := newDriverRig(gen)
	recorded := 0
	d.Record = func(sim.Time, Op) { recorded++ }
	const warm, runs = 16, 100
	d.Run(eng, warm+runs+1, nil) // AllocsPerRun makes one extra warm-up call
	step := func() {
		for n := recorded; recorded == n; {
			eng.Step()
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if got := testing.AllocsPerRun(runs, step); got != 0 {
		t.Errorf("driver step allocated %.1f objects, want 0", got)
	}
	if st := d.Stats(); st.Updates < warm+runs || st.Failed != 0 {
		t.Fatalf("loop not exercised: %+v", st)
	}
}

// TestYCSBNextMatchesNextInto: Next is NextInto on a fresh Op, so the two
// must draw the RNG in the same order and produce the same requests — and
// an Op from Next must survive later draws, which a refilled one does not.
func TestYCSBNextMatchesNextInto(t *testing.T) {
	cfg := YCSBConfig{Keys: 500, UpdateRatio: 0.4, ScanRatio: 0.3, Zipfian: true}
	a, b := NewYCSB(sim.NewRand(9), cfg), NewYCSB(sim.NewRand(9), cfg)
	var scratch Op
	var kept []Op
	var want []string
	for i := 0; i < 2000; i++ {
		op := a.Next()
		b.NextInto(&scratch)
		if op.Update != scratch.Update || string(op.Req.Encode()) != string(scratch.Req.Encode()) {
			t.Fatalf("draw %d: Next %v %q, NextInto %v %q", i, op.Update, op.Req.Encode(), scratch.Update, scratch.Req.Encode())
		}
		kept = append(kept, op)
		want = append(want, string(op.Req.Encode()))
	}
	for i, op := range kept {
		if string(op.Req.Encode()) != want[i] {
			t.Fatalf("op %d from Next changed after later draws", i)
		}
	}
}

// TestLockRetryReissuesCurrentOp: on StatusLocked the driver sends the same
// op again after RetryDelay, without drawing — the current op is the
// driver's one slot, and a draw before the retry would overwrite the request
// being retried.
func TestLockRetryReissuesCurrentOp(t *testing.T) {
	draws := 0
	name := make([]byte, 0, 8) // generator-owned scratch, rewritten by every draw
	gen := GeneratorFunc(func() Op {
		draws++
		name = append(name[:0], 'L', byte('0'+draws))
		if draws%2 == 1 {
			return Op{Req: protocol.LockReq(name), Retry: true}
		}
		return Op{Req: protocol.UnlockReq(name)}
	})
	eng, d, far := newDriverRig(gen)
	var seen []string
	var drawsAtArrival []int
	attempts := map[string]int{}
	far.onBypass = func(payload []byte) protocol.Status {
		req, err := protocol.DecodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		n := string(req.Args[0])
		seen = append(seen, req.Op.String()+" "+n)
		drawsAtArrival = append(drawsAtArrival, draws)
		attempts[n]++
		if req.Op == protocol.OpLockAcquire && attempts[n] <= 2 {
			return protocol.StatusLocked
		}
		return protocol.StatusOK
	}
	var final DriverStats
	d.Run(eng, 4, func(st DriverStats) { final = st })
	eng.Run()
	want := []string{"lock L1", "lock L1", "lock L1", "unlock L2", "lock L3", "lock L3", "lock L3", "unlock L4"}
	wantDraws := []int{1, 1, 1, 2, 3, 3, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("far side saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] || drawsAtArrival[i] != wantDraws[i] {
			t.Fatalf("request %d: %q after %d draws, want %q after %d (all: %v)",
				i, seen[i], drawsAtArrival[i], want[i], wantDraws[i], seen)
		}
	}
	if final.Completed != 4 || final.LockRetries != 4 || final.LockOps != 8 || final.Failed != 0 {
		t.Fatalf("driver stats %+v", final)
	}
}

// actionAllocs pins a mix's Action to zero allocations once the ops slice has
// grown to the longest action: every key and id is formatted into the storage
// of the op that carries it, command names and fixed keys are shared.
func actionAllocs(t *testing.T, mix Mix, users int) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	r := sim.NewRand(3)
	var ops []Op
	seq := uint64(0)
	action := func() {
		seq++
		ops = mix.Action(r, r.Intn(users), seq, ops[:0])
	}
	kinds := map[int]bool{}
	for i := 0; i < 200; i++ { // every kind of action has grown the slice
		action()
		kinds[len(ops)] = true
	}
	if len(kinds) < 3 {
		t.Fatalf("warm-up drew actions of %d kinds, want all 3", len(kinds))
	}
	if got := testing.AllocsPerRun(1000, action); got != 0 {
		t.Errorf("Action allocated %.2f objects, want 0", got)
	}
}

func TestTwitterActionAllocs(t *testing.T) {
	const users = 1000000 // the open loop's population: the longest keys
	actionAllocs(t, NewTwitterMix(TwitterConfig{Users: users, UpdateRatio: 0.4}), users)
}

func TestTPCCActionAllocs(t *testing.T) {
	actionAllocs(t, NewTPCCMix(TPCCConfig{UpdateRatio: 0.5}), 1000000)
}

// TestOpsSurviveSliceGrowth: an Op's arguments live in the slice element it
// was drawn into. When a later append moves the slice, the moved ops still
// read the bytes they were given (from the array left behind), and so does a
// by-value copy — both alias the first element's storage rather than own any,
// which is what lets bench/ accumulate thousands of actions in one slice and
// hand ops around by value.
func TestOpsSurviveSliceGrowth(t *testing.T) {
	encoded := func(ops []Op) []string {
		out := make([]string, len(ops))
		for i, op := range ops {
			out[i] = string(op.Req.Encode())
		}
		return out
	}
	for name, mix := range map[string]Mix{
		"twitter": NewTwitterMix(TwitterConfig{Users: 1000, UpdateRatio: 0.6}),
		"tpcc":    NewTPCCMix(TPCCConfig{UpdateRatio: 0.9}),
		"kv":      NewKVMix(1000, 10, 0.5),
	} {
		r := sim.NewRand(7)
		ops := mix.Action(r, 42, 1, make([]Op, 0, 1))
		first := append([]Op(nil), ops...) // by-value copies
		want := encoded(ops)
		base := &ops[0]
		for seq := uint64(2); &ops[0] == base || seq < 50; seq++ {
			ops = mix.Action(r, 42, seq, ops)
		}
		for i, w := range want {
			if got := string(ops[i].Req.Encode()); got != w {
				t.Errorf("%s: op %d reads %q after the slice moved, was %q", name, i, got, w)
			}
			if got := string(first[i].Req.Encode()); got != w {
				t.Errorf("%s: copy of op %d reads %q, was %q", name, i, got, w)
			}
		}
	}
	// A copy aliases its source: redrawing the source element shows through
	// the copy taken before.
	r, mix := sim.NewRand(7), NewKVMix(1000, 10, 0)
	var slot [1]Op
	kept := mix.Action(r, 0, 1, slot[:0])[0]
	before := string(kept.Req.Encode())
	for string(mix.Action(r, 0, 2, slot[:0])[0].Req.Encode()) == before {
	}
	if string(kept.Req.Encode()) == before {
		t.Error("a copied Op kept its bytes when its source was redrawn: it owns storage")
	}
}

// BenchmarkTwitterAction: one open-loop retwis action drawn into a recycled
// ops slice — `make microbench` only.
func BenchmarkTwitterAction(b *testing.B) {
	const users = 1000000
	mix := NewTwitterMix(TwitterConfig{Users: users, UpdateRatio: 0.4})
	r := sim.NewRand(3)
	var ops []Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = mix.Action(r, r.Intn(users), uint64(i+1), ops[:0])
	}
}
