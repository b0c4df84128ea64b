package netsim

import (
	"testing"

	"pmnet/internal/sim"
)

// Regression for the drop-tail admission bug: a packet larger than
// QueueBytes must be admitted when the link is completely idle (the wire
// itself has no size limit — only the queue does), and tail-dropped only
// when it would land behind queued bytes.
func TestOversizedPacketAdmittedWhenIdle(t *testing.T) {
	link := LinkConfig{PropDelay: 0, Bandwidth: 1e9, QueueBytes: 500}
	rig := newRig(t, link)
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	// Both 900 B packets (> QueueBytes) clear the TX stack at the same time:
	// the first finds the link idle and must serialize; the second lands
	// behind it and must tail-drop.
	rig.h1.Send(rawPacket(2, 900))
	rig.h1.Send(rawPacket(2, 900))
	rig.eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d oversized packets, want 1 (idle-link admission)", delivered)
	}
	if rig.net.Stats().DroppedFull != 1 {
		t.Fatalf("DroppedFull = %d, want 1", rig.net.Stats().DroppedFull)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	if err := (LinkConfig{LossRate: 0.5}).Validate(); err != nil {
		t.Fatalf("LossRate 0.5 rejected: %v", err)
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if err := (LinkConfig{LossRate: bad}).Validate(); err == nil {
			t.Errorf("LossRate %v accepted, want error", bad)
		}
	}
}

// LossRate >= 1 used to silently black-hole every packet (while still
// consuming an RNG draw each); now the link refuses to be built.
func TestConnectRejectsFullLoss(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, sim.NewRand(1))
	NewHost(net, 1, "a", StackModel{}, 1, sim.NewRand(2))
	NewHost(net, 2, "b", StackModel{}, 1, sim.NewRand(3))
	defer func() {
		if recover() == nil {
			t.Error("Connect with LossRate 1 did not panic")
		}
	}()
	net.Connect(1, 2, LinkConfig{LossRate: 1})
}

func TestImpairmentsValidate(t *testing.T) {
	good := []Impairments{
		{},
		{GoodLoss: 0.01, BadLoss: 1, GoodToBad: 0.05, BadToGood: 0.2},
		{JitterMedian: 1000, JitterSigma: 0.5},
		{ReorderProb: 0.1, ReorderWindow: 1000},
		{DupProb: 0.5},
		{RateBps: 1e9, BurstBytes: 1024},
	}
	for i, im := range good {
		if err := im.Validate(); err != nil {
			t.Errorf("good[%d] rejected: %v", i, err)
		}
	}
	bad := []Impairments{
		{GoodLoss: 1.5},
		{BadLoss: -0.1},
		{GoodToBad: 2},
		{BadToGood: -1},
		{ReorderProb: 1, ReorderWindow: 1000}, // [0,1)
		{ReorderProb: 0.1},                    // needs a window
		{ReorderWindow: -1},
		{DupProb: 1},
		{JitterMedian: -1},
		{JitterSigma: -0.5},
		{RateBps: -1},
		{BurstBytes: -1},
	}
	for i, im := range bad {
		if err := im.Validate(); err == nil {
			t.Errorf("bad[%d] = %+v accepted, want error", i, im)
		}
	}
}

// Gilbert–Elliott burst lengths: with BadLoss 1 and GoodLoss 0, loss runs
// are exactly bad-state visits, whose length is geometric with mean
// 1/BadToGood.
func TestGilbertElliottBurstLengths(t *testing.T) {
	im := newLinkImpair(Impairments{
		BadLoss: 1, GoodToBad: 0.05, BadToGood: 0.2,
	}, sim.NewRand(42))
	const n = 500000
	bursts, cur := 0, 0
	total := 0
	losses := 0
	for i := 0; i < n; i++ {
		if im.lose() {
			losses++
			cur++
			continue
		}
		if cur > 0 {
			bursts++
			total += cur
			cur = 0
		}
	}
	if bursts < 1000 {
		t.Fatalf("only %d bursts in %d packets; chain not flipping", bursts, n)
	}
	mean := float64(total) / float64(bursts)
	if mean < 4.0 || mean > 6.0 {
		t.Fatalf("mean burst length %.2f, want ≈ 1/BadToGood = 5", mean)
	}
	// Long-run loss rate = stationary P(bad) = g2b/(g2b+b2g) = 0.2.
	frac := float64(losses) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("loss fraction %.3f, want ≈ 0.20", frac)
	}
}

// Reorder hold-back is bounded by the window and strictly positive on a hit.
func TestReorderWindowBounded(t *testing.T) {
	window := 50 * sim.Microsecond
	im := newLinkImpair(Impairments{
		ReorderProb: 0.5, ReorderWindow: window,
	}, sim.NewRand(7))
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		d := im.extraDelay()
		if d == 0 {
			continue
		}
		hits++
		if d > window+1 {
			t.Fatalf("hold-back %v exceeds window %v", d, window)
		}
	}
	if hits < n/3 || hits > 2*n/3 {
		t.Fatalf("%d/%d reorder hits, want ≈ half", hits, n)
	}
}

// Jitter-only impairment never produces a negative delay (the PDES lookahead
// bound requires arrivals at or after the propagation bound).
func TestJitterDelayNonNegative(t *testing.T) {
	im := newLinkImpair(Impairments{
		JitterMedian: 20 * sim.Microsecond, JitterSigma: 1.5,
	}, sim.NewRand(13))
	for i := 0; i < 100000; i++ {
		if d := im.extraDelay(); d < 0 {
			t.Fatalf("negative extra delay %v", d)
		}
	}
}

// Duplication delivers an independent deep copy: distinct packet IDs,
// multiplied across every impaired hop it traverses.
func TestDuplicationDelivers(t *testing.T) {
	link := DefaultLink()
	link.Impair = Impairments{DupProb: 0.5}
	rig := newRig(t, link)
	delivered := 0
	ids := map[uint64]bool{}
	rig.h2.OnReceive(func(p *Packet) {
		delivered++
		if ids[p.ID] {
			t.Fatalf("packet id %d delivered twice; duplicate shares identity", p.ID)
		}
		ids[p.ID] = true
		if len(p.Raw) != 100 {
			t.Fatalf("duplicate payload length %d, want 100", len(p.Raw))
		}
	})
	const n = 1000
	for i := 0; i < n; i++ {
		rig.h1.Send(rawPacket(2, 100))
	}
	rig.eng.Run()
	// Two impaired hops at 50% each: E[deliveries] = n·1.5² = 2250.
	if delivered < 2000 || delivered > 2500 {
		t.Fatalf("delivered %d, want ≈ 2250", delivered)
	}
	if rig.net.Stats().Duplicated == 0 {
		t.Fatal("Duplicated not counted")
	}
}

// Token-bucket shaping paces a burst down to the configured rate.
func TestTokenBucketRate(t *testing.T) {
	link := LinkConfig{PropDelay: 0, Bandwidth: 10e9}
	link.Impair = Impairments{RateBps: 1e8, BurstBytes: 1000} // 12.5 B/µs
	rig := newRig(t, link)
	delivered := 0
	var lastAt sim.Time
	rig.h2.OnReceive(func(p *Packet) { delivered++; lastAt = rig.eng.Now() })
	const n = 100
	for i := 0; i < n; i++ {
		rig.h1.Send(rawPacket(2, 1000))
	}
	rig.eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d (shaping must delay, not drop)", delivered, n)
	}
	// ~100 kB minus the 1 kB burst credit at 12.5 B/µs ≈ 8 ms (per hop; the
	// second hop receives at the shaped rate and adds little).
	if lastAt < 6*sim.Millisecond || lastAt > 12*sim.Millisecond {
		t.Fatalf("burst drained at %v, want ≈ 8 ms under the 100 Mbps cap", lastAt)
	}
}

// Burst (Gilbert–Elliott) drops are classified separately from drop-tail and
// legacy random loss.
func TestBurstDropCounter(t *testing.T) {
	link := DefaultLink()
	link.Impair = Impairments{GoodLoss: 0.3}
	rig := newRig(t, link)
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	const n = 1000
	for i := 0; i < n; i++ {
		rig.h1.Send(rawPacket(2, 50))
	}
	rig.eng.Run()
	st := rig.net.Stats()
	if st.DroppedBurst == 0 {
		t.Fatal("DroppedBurst not counted")
	}
	if st.DroppedRand != 0 || st.DroppedFull != 0 {
		t.Fatalf("impairment loss leaked into other counters: %+v", st)
	}
	frac := float64(delivered) / n
	if frac < 0.39 || frac > 0.59 { // (1-0.3)² = 0.49 over two hops
		t.Fatalf("delivered %.2f, want ≈ 0.49", frac)
	}
}

// ecmpRig wires a two-spine leaf-spine by hand:
//
//	clients 1..8 — leaf 100 — {spine 200, spine 201} — leaf 101 — server 9.
func ecmpRig(t testing.TB) (*sim.Engine, *Network, *Host, []*Host, map[NodeID]*Switch) {
	t.Helper()
	eng := sim.NewEngine()
	r := sim.NewRand(3)
	net := New(eng, r.Fork())
	sws := map[NodeID]*Switch{}
	for _, id := range []NodeID{100, 101, 200, 201} {
		sws[id] = NewSwitch(net, id, "sw", DefaultSwitchLatency)
	}
	var clients []*Host
	for i := 1; i <= 8; i++ {
		h := NewHost(net, NodeID(i), "c", StackModel{}, 1, r.Fork())
		clients = append(clients, h)
		net.Connect(NodeID(i), 100, DefaultLink())
	}
	server := NewHost(net, 9, "server", StackModel{}, 1, r.Fork())
	net.Connect(9, 101, DefaultLink())
	for _, leaf := range []NodeID{100, 101} {
		for _, spine := range []NodeID{200, 201} {
			net.Connect(leaf, spine, DefaultLink())
		}
	}
	net.SetECMP(true)
	return eng, net, server, clients, sws
}

// Distinct flows spread across both spines; every packet still arrives.
func TestECMPSplitsFlowsAcrossSpines(t *testing.T) {
	eng, _, server, clients, sws := ecmpRig(t)
	delivered := 0
	server.OnReceive(func(p *Packet) { delivered++ })
	const per = 10
	for _, c := range clients {
		for i := 0; i < per; i++ {
			c.Send(rawPacket(9, 100))
		}
	}
	eng.Run()
	if delivered != len(clients)*per {
		t.Fatalf("delivered %d, want %d", delivered, len(clients)*per)
	}
	s0, s1 := sws[200].Forwarded(), sws[201].Forwarded()
	if s0 == 0 || s1 == 0 {
		t.Fatalf("flows not spread: spine0=%d spine1=%d", s0, s1)
	}
	if s0+s1 != uint64(len(clients)*per) {
		t.Fatalf("spines forwarded %d, want %d", s0+s1, len(clients)*per)
	}
}

// One flow always hashes to one path: a single client's packets all cross
// the same spine, preserving in-order delivery within the flow.
func TestECMPFlowConsistency(t *testing.T) {
	eng, _, server, clients, sws := ecmpRig(t)
	server.OnReceive(func(p *Packet) {})
	const per = 20
	for i := 0; i < per; i++ {
		clients[0].Send(rawPacket(9, 100))
	}
	eng.Run()
	s0, s1 := sws[200].Forwarded(), sws[201].Forwarded()
	if s0 != 0 && s1 != 0 {
		t.Fatalf("one flow crossed both spines: spine0=%d spine1=%d", s0, s1)
	}
	if s0+s1 != per {
		t.Fatalf("spines forwarded %d, want %d", s0+s1, per)
	}
}

func TestLeafSpineShape(t *testing.T) {
	link := DefaultLink()
	topo := LeafSpine(4, 2, 4, link, 6)
	if len(topo.Switches) != 6 {
		t.Fatalf("switches = %d, want 6 (4 leaves + 2 spines)", len(topo.Switches))
	}
	if len(topo.Links) != 8 {
		t.Fatalf("links = %d, want 8 (full leaf×spine mesh)", len(topo.Links))
	}
	if len(topo.ClientEdges) != 3 || topo.ServerEdge != leafBase+3 {
		t.Fatalf("edges = %v / server %d", topo.ClientEdges, topo.ServerEdge)
	}
	if !topo.ECMP {
		t.Fatal("two spines must enable ECMP")
	}
	// Oversubscription: 6 hosts × 10G over 2 spines at ratio 4 → 7.5G uplinks.
	wantBW := 6 * link.Bandwidth / (2 * 4)
	for _, l := range topo.Links {
		if l.Cfg.Bandwidth != wantBW {
			t.Fatalf("uplink bandwidth %v, want %v", l.Cfg.Bandwidth, wantBW)
		}
		if l.Cfg.PropDelay != 2*link.PropDelay {
			t.Fatalf("uplink prop %v, want 2× host link", l.Cfg.PropDelay)
		}
	}
	// Single spine: no multipath.
	if LeafSpine(2, 1, 1, link, 1).ECMP {
		t.Fatal("single spine must not claim ECMP")
	}
}

func TestFatTreeShape(t *testing.T) {
	link := DefaultLink()
	topo := FatTree(4, link)
	// k=4: 4 pods × (2 edge + 2 agg) + 4 cores = 20 switches.
	if len(topo.Switches) != 20 {
		t.Fatalf("switches = %d, want 20", len(topo.Switches))
	}
	// Per pod: 2×2 edge-agg + 2×2 agg-core = 8 links; 4 pods = 32.
	if len(topo.Links) != 32 {
		t.Fatalf("links = %d, want 32", len(topo.Links))
	}
	if len(topo.ClientEdges) != 7 || topo.ServerEdge != leafBase+7 {
		t.Fatalf("edges = %v / server %d", topo.ClientEdges, topo.ServerEdge)
	}
	if !topo.ECMP {
		t.Fatal("k=4 fat-tree must enable ECMP")
	}
	defer func() {
		if recover() == nil {
			t.Error("odd fat-tree arity did not panic")
		}
	}()
	FatTree(3, link)
}

// A fat-tree actually routes: client on pod 0 reaches a server on the last
// edge switch across the core layer.
func TestFatTreeRoutes(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewRand(4)
	net := New(eng, r.Fork())
	topo := FatTree(4, DefaultLink())
	for _, sw := range topo.Switches {
		NewSwitch(net, sw.ID, sw.Name, DefaultSwitchLatency)
	}
	for _, l := range topo.Links {
		net.Connect(l.A, l.B, l.Cfg)
	}
	client := NewHost(net, 1, "c", StackModel{}, 1, r.Fork())
	server := NewHost(net, 2, "s", StackModel{}, 1, r.Fork())
	net.Connect(1, topo.ClientEdges[0], DefaultLink())
	net.Connect(2, topo.ServerEdge, DefaultLink())
	net.SetECMP(topo.ECMP)
	got := 0
	server.OnReceive(func(p *Packet) { got++ })
	for i := 0; i < 5; i++ {
		client.Send(rawPacket(2, 64))
	}
	_ = client
	eng.Run()
	if got != 5 {
		t.Fatalf("delivered %d of 5 across the fat-tree", got)
	}
}
