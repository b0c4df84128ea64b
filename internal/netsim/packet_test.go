package netsim

// Tests of the packet's one wait (Packet.At): the two-owner panics, what a
// recycle and a copy keep of it, what it allocates, and the three places in
// this package where a packet waits — a wire, a partition boundary, a host
// stack.

import (
	"testing"
	"unsafe"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// TestPacketSize pins the packet, wheel node included, to the 224-byte size
// class: every packet in flight, and every one in a pool, is one of these.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 224 {
		t.Errorf("sizeof(Packet) = %d, want ≤ 224", got)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	fn()
}

// TestWaitingPacketHasOneOwner: a second wait, or a free, before the first
// wait has fired means two holders of one packet.
func TestWaitingPacketHasOneOwner(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, sim.NewRand(1))
	for _, pkt := range []*Packet{n.AllocPacket(), {}} {
		fired := 0
		then := func(*Packet) { fired++ }
		pkt.After(eng, 5, then)
		mustPanic(t, "netsim: packet already waiting", func() { pkt.At(eng, 9, then) })
		mustPanic(t, "netsim: freeing a waiting packet", func() { n.FreePacket(pkt) })
		eng.Run()
		if fired != 1 {
			t.Fatalf("continuation ran %d times, want 1", fired)
		}
		pkt.After(eng, 5, then) // the wait is over: the packet may wait again
		eng.Run()
		n.FreePacket(pkt)
		if fired != 2 {
			t.Fatalf("second wait ran the continuation %d times in all, want 2", fired)
		}
	}
}

// TestFreeKeepsWakeOnly: a recycled packet keeps the closure bound to it and
// nothing of the wait it last made.
func TestFreeKeepsWakeOnly(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, sim.NewRand(1))
	pkt := n.AllocPacket()
	pkt.Stamp = 7
	n.TransmitAfter(5, pkt, 3) // no node 3: the wait ends in dropDead, which frees
	eng.Run()
	if n.PooledPackets() != 1 || n.Stats().DroppedDead != 1 {
		t.Fatalf("setup: %d pooled, stats %+v", n.PooledPackets(), n.Stats())
	}
	if pkt.wake == nil || pkt.then != nil || pkt.hop != 0 || pkt.Stamp != 0 {
		t.Fatalf("freed packet: wake bound %v, then set %v, hop %d, stamp %d",
			pkt.wake != nil, pkt.then != nil, pkt.hop, pkt.Stamp)
	}
}

// TestCopiesDoNotShareTheWait: a copied wake would deliver the original, so
// a link-level duplicate keeps its own and a Clone starts with none.
func TestCopiesDoNotShareTheWait(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, sim.NewRand(1))
	var got []*Packet
	then := func(p *Packet) { got = append(got, p) }

	orig := n.AllocPacket()
	orig.Raw = append(orig.Raw, "payload"...)
	orig.After(eng, 1, then)
	clone := orig.Clone()
	if clone.wake != nil || clone.then != nil {
		t.Fatal("Clone carried the original's wait across")
	}
	clone.After(eng, 2, then)
	eng.Run()

	spare := n.AllocPacket()
	spare.After(eng, 1, func(p *Packet) { n.FreePacket(p) })
	eng.Run() // the pool now holds a packet with a wake of its own: dupPacket's
	dup := n.dupPacket(orig)
	if dup != spare || dup.then != nil {
		t.Fatalf("dupPacket: recycled %v, continuation carried across %v", dup == spare, dup.then != nil)
	}
	dup.After(eng, 1, then)
	eng.Run()
	if len(got) != 3 || got[0] != orig || got[1] != clone || got[2] != dup {
		t.Fatalf("waits delivered %p, want original %p, clone %p, duplicate %p", got, orig, clone, dup)
	}
}

// TestCopiesOfAWaitingPacket: a Clone or a link-level duplicate made while
// the original waits comes out not waiting, its wheel node its own and
// unlinked — it waits, and is freed, on its own — while the original still
// has one owner: a second wait or a free of it panics, and its own wait ends
// where it was going to.
func TestCopiesOfAWaitingPacket(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, sim.NewRand(1))
	var got []*Packet
	then := func(p *Packet) { got = append(got, p) }

	orig := n.AllocPacket()
	orig.Raw = append(orig.Raw, "payload"...)
	orig.After(eng, 3, then)
	clone, dup := orig.Clone(), n.dupPacket(orig)
	for _, c := range []struct {
		name string
		pkt  *Packet
	}{{"Clone", clone}, {"dupPacket", dup}} {
		if c.pkt.then != nil || c.pkt.tm.Pending() {
			t.Fatalf("%s of a waiting packet: waiting %v, timer pending %v", c.name, c.pkt.then != nil, c.pkt.tm.Pending())
		}
	}
	mustPanic(t, "netsim: packet already waiting", func() { orig.At(eng, 9, then) })
	mustPanic(t, "netsim: freeing a waiting packet", func() { n.FreePacket(orig) })
	clone.After(eng, 1, then)
	dup.After(eng, 2, then)
	if eng.Pending() != 3 {
		t.Fatalf("%d events pending, want 3: the original's and each copy's", eng.Pending())
	}
	eng.Run()
	if len(got) != 3 || got[0] != clone || got[1] != dup || got[2] != orig {
		t.Fatalf("waits delivered %p, want clone %p, duplicate %p, original %p", got, clone, dup, orig)
	}
	n.FreePacket(dup)
	n.FreePacket(orig)
	if n.PooledPackets() != 2 || eng.PooledNodes() != 0 {
		t.Fatalf("%d packets pooled, want 2; %d pooled engine nodes, want 0", n.PooledPackets(), eng.PooledNodes())
	}
}

// TestWaitAllocs: a packet binds its wake once — a pooled packet in its first
// life, a &Packet{} at its first wait — and waits for nothing after that.
func TestWaitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	eng := sim.NewEngine()
	n := New(eng, sim.NewRand(1))
	free := func(p *Packet) { n.FreePacket(p) }
	life := func() {
		n.AllocPacket().After(eng, 1, free)
		eng.Run()
	}
	life() // first life: the packet and its wake
	if got := testing.AllocsPerRun(100, life); got != 0 {
		t.Errorf("a recycled packet's wait allocated %.1f objects, want 0", got)
	}
	var pkt *Packet
	nop := func(*Packet) {}
	unpooled := func() {
		pkt = &Packet{}
		pkt.After(eng, 1, nop)
		eng.Run()
		pkt.After(eng, 1, nop)
		eng.Run()
	}
	if got := testing.AllocsPerRun(100, unpooled); got != 2 {
		t.Errorf("a &Packet{} waiting twice allocated %.1f objects, want 2 (itself and one wake)", got)
	}
}

// TestHandoffWakesOnDestination: a packet handed across a partition boundary
// waits on the destination's engine for the destination's arrive, and is
// delivered there.
func TestHandoffWakesOnDestination(t *testing.T) {
	rg := newFabricRig()
	var seen *Packet
	rg.b.OnReceive(func(p *Packet) { seen = p })
	na, nb := rg.fab.Part(0), rg.fab.Part(1)
	pkt := na.AllocPacket()
	pkt.To = 2
	na.Transmit(pkt, 1)
	rg.engs[0].Run() // serialization ends; the arrival sits in the handoff queue
	if pkt.then != nil || pkt.hop != 2 {
		t.Fatalf("queued for handoff: waiting %v, hop %d; want not waiting, hop 2", pkt.then != nil, pkt.hop)
	}
	rg.fab.DrainFunc(1)(na.par)
	if rg.engs[0].Pending() != 0 || rg.engs[1].Pending() != 1 {
		t.Fatalf("after the drain: %d events on the source engine, %d on the destination's; want 0 and 1",
			rg.engs[0].Pending(), rg.engs[1].Pending())
	}
	rg.engs[1].Run()
	if seen != pkt || nb.Stats().Delivered != 1 || na.Stats().Delivered != 0 {
		t.Fatalf("delivered %p (sent %p); stats source %+v destination %+v", seen, pkt, na.Stats(), nb.Stats())
	}
}

// TestRestartDropsPacketInStack: a packet inside the TX or RX stack when the
// host restarts belongs to the old stack and is recycled at its exit.
func TestRestartDropsPacketInStack(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	n := New(eng, r)
	stack := StackModel{Base: 10 * sim.Microsecond}
	a := NewHost(n, 1, "a", stack, 1, r)
	b := NewHost(n, 2, "b", stack, 1, r)
	n.Connect(1, 2, DefaultLink())
	received := 0
	b.OnReceive(func(*Packet) { received++ })
	send := func() {
		pkt := n.AllocPacket()
		pkt.To = 2
		a.Send(pkt)
	}

	send()
	eng.RunUntil(5 * sim.Microsecond) // inside a's TX stack
	a.Fail()
	a.Restart()
	eng.Run()
	if received != 0 || n.PooledPackets() != 1 {
		t.Fatalf("restart during TX: %d received, %d pooled; want 0 and 1", received, n.PooledPackets())
	}

	send()
	eng.RunUntil(eng.Now() + 15*sim.Microsecond) // on the wire, then inside b's RX stack
	b.Fail()
	b.Restart()
	eng.Run()
	if received != 0 || n.PooledPackets() != 1 {
		t.Fatalf("restart during RX: %d received, %d pooled; want 0 and 1", received, n.PooledPackets())
	}
	if st := n.Stats(); st.DroppedDead != 0 {
		t.Fatalf("a packet lost inside a restarted stack counted as a network drop: %+v", st)
	}

	send()
	eng.Run()
	if received != 1 || n.PooledPackets() != 1 {
		t.Fatalf("after both restarts: %d received, %d pooled; want 1 and 1", received, n.PooledPackets())
	}
}
