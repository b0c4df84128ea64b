package netsim

// Allocation pin + micro-benchmark for the packet path. A packet's full
// journey — Transmit, link serialization, arrival, RX stack crossing, app
// callback, recycle — runs on pooled packets that are their own event
// payloads (Packet.At) and the link's pooled txEnd, so steady state must be
// allocation-free.

import (
	"testing"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
	"pmnet/internal/sim/pdes"
	"pmnet/internal/trace"
)

// transmitRig is a two-host wire with a no-op receiver, the minimal topology
// that exercises every wait on the packet path.
type transmitRig struct {
	eng *sim.Engine
	net *Network
	a   *Host
	b   *Host
}

func newTransmitRig() *transmitRig {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	n := New(eng, r)
	a := NewHost(n, 1, "a", StackModel{}, 1, r)
	b := NewHost(n, 2, "b", StackModel{}, 1, r)
	n.Connect(a.ID(), b.ID(), DefaultLink())
	b.OnReceive(func(*Packet) {})
	return &transmitRig{eng: eng, net: n, a: a, b: b}
}

// round pushes one raw packet a→b and drains the virtual clock.
func (rg *transmitRig) round() {
	pkt := rg.net.AllocPacket()
	pkt.To = rg.b.ID()
	pkt.Raw = append(pkt.Raw[:0], "ping-payload"...)
	rg.net.Transmit(pkt, rg.a.ID())
	rg.eng.Run()
}

// TestTransmitAllocs pins Network.Transmit plus delivery to zero steady-state
// allocations once the packet, txEnd and engine-node pools have warmed up.
func TestTransmitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newTransmitRig()
	rg.round() // warm the pools and the route tables
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("Transmit+deliver allocated %.1f objects per packet, want 0", got)
	}
}

// TestTransmitTracedAllocs pins the traced packet path: with a bound tracer
// the journey emits stack/link records into the preallocated ring and must
// stay allocation-free, same as the untraced path.
func TestTransmitTracedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newTransmitRig()
	tr := trace.NewTracer(1 << 16)
	tr.Bind(rg.eng)
	rg.net.SetTracer(tr)
	rg.round() // warm pools; ring is preallocated by Bind
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("traced Transmit+deliver allocated %.1f objects per packet, want 0", got)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing on the traced path")
	}
}

// TestDropPathAllocs pins the drop paths — the packets a crashed server
// blackholes (dead destination) plus random loss — to zero steady-state
// allocations, traced and untraced. These paths run hottest exactly when
// the simulation is least healthy, so they must not start allocating.
func TestDropPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			rg := newTransmitRig()
			if traced {
				tr := trace.NewTracer(1 << 16)
				tr.Bind(rg.eng)
				rg.net.SetTracer(tr)
			}
			rg.round()                  // warm pools over the live path
			rg.net.SetNodeDown(2, true) // crash the receiver
			rg.round()                  // warm the drop path
			if got := testing.AllocsPerRun(100, rg.round); got != 0 {
				t.Errorf("dead-destination drop allocated %.1f objects per packet, want 0", got)
			}
			if s := rg.net.Stats(); s.DroppedDead == 0 {
				t.Fatal("drop path never taken")
			}
		})
	}
}

// BenchmarkTransmit measures one full packet journey per iteration.
func BenchmarkTransmit(b *testing.B) {
	rg := newTransmitRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
}

// ecmpRound returns a round over impair_test.go's two-spine leaf-spine: every
// client transmits one pooled packet to the server, so each round takes the
// flow-hashed leaf→spine hop eight times (both spines, given the eight
// distinct flows) and drains the clock.
func ecmpRound(tb testing.TB) func() {
	eng, net, server, clients, _ := ecmpRig(tb)
	server.OnReceive(func(*Packet) {})
	return func() {
		for _, c := range clients {
			pkt := net.AllocPacket()
			pkt.From, pkt.To, pkt.SrcPort = c.ID(), server.ID(), uint16(c.ID())
			pkt.Raw = append(pkt.Raw[:0], "ping-payload"...)
			net.Transmit(pkt, c.ID())
		}
		eng.Run()
	}
}

// TestTransmitECMPAllocs pins the ECMP hop — group lookup, flow hash, member
// port — to zero steady-state allocations, like the single-path hop.
func TestTransmitECMPAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	round := ecmpRound(t)
	round() // warm the pools and build the table
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("ECMP round allocated %.1f objects per 8 packets, want 0", got)
	}
}

// TestTransmitCrossPartitionECMPAllocs pins the same hop where it is also a
// cross-partition link: clients and their leaf in partition 0, the spines,
// the far leaf and the server in partition 1, so every flow-hashed leaf→spine
// transmit ends in a handoff-queue push instead of a local arrival.
func TestTransmitCrossPartitionECMPAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	root := sim.NewRand(3)
	fab := NewFabric(engs, []int{0, 1}, root)
	near, far := fab.Part(0), fab.Part(1)
	NewSwitch(near, 100, "leaf-0", DefaultSwitchLatency)
	for _, id := range []NodeID{101, 200, 201} {
		NewSwitch(far, id, "sw", DefaultSwitchLatency)
	}
	server := NewHost(far, 9, "server", StackModel{}, 1, root.Fork())
	fab.Connect(9, 101, DefaultLink())
	for i := NodeID(1); i <= 8; i++ {
		NewHost(near, i, "c", StackModel{}, 1, root.Fork())
		fab.Connect(i, 100, DefaultLink())
	}
	for _, leaf := range []NodeID{100, 101} {
		for _, spine := range []NodeID{200, 201} {
			fab.Connect(leaf, spine, DefaultLink())
		}
	}
	fab.SetECMP(true)
	fab.Freeze()
	delivered := 0
	server.OnReceive(func(*Packet) { delivered++ })
	var shards []pdes.Shard
	for s := range engs {
		shards = append(shards, pdes.Shard{Eng: engs[s], Begin: fab.BeginFunc(s),
			Drain: fab.DrainFunc(s), PendingOut: fab.PendingOutFunc(s)})
	}
	runner := pdes.New(shards, fab.Lookahead(), 1)
	runner.SetQuiesce(fab.Quiesce)
	round := func() {
		for i := NodeID(1); i <= 8; i++ {
			pkt := near.AllocPacket()
			pkt.From, pkt.To, pkt.SrcPort = i, 9, uint16(i)
			pkt.Raw = append(pkt.Raw[:0], "ping-payload"...)
			near.Transmit(pkt, i)
		}
		// A bounded run parks both clocks at its deadline: the traffic is
		// one-way, and the sending partition must not fall behind.
		runner.RunUntil(runner.Now() + sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		round() // warm packet pools, handoff buffers, return slices
	}
	if delivered != 80 {
		t.Fatalf("server received %d of 80 packets", delivered)
	}
	var crossed [2]uint64
	for k, spine := range []NodeID{200, 201} {
		crossed[k] = near.findLink(100, spine).sent
	}
	if crossed[0] == 0 || crossed[1] == 0 || crossed[0]+crossed[1] != 80 {
		t.Fatalf("leaf→spine cross links carried %v packets, want 80 over both", crossed)
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("cross-partition ECMP round allocated %.1f objects per 8 packets, want 0", got)
	}
}

// BenchmarkTransmitECMP measures eight packet journeys across the two-spine
// leaf-spine per iteration: four hops each, one of them flow-hashed.
func BenchmarkTransmitECMP(b *testing.B) {
	round := ecmpRound(b)
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
