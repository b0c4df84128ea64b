package netsim

import (
	"testing"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// testRig wires two hosts through a switch: h1 -- sw -- h2.
type testRig struct {
	eng    *sim.Engine
	net    *Network
	h1, h2 *Host
	sw     *Switch
}

func newRig(t *testing.T, link LinkConfig) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := New(eng, r.Fork())
	noJitter := StackModel{Base: 1 * sim.Microsecond}
	h1 := NewHost(net, 1, "h1", noJitter, 1, r.Fork())
	h2 := NewHost(net, 2, "h2", noJitter, 1, r.Fork())
	sw := NewSwitch(net, 3, "sw", DefaultSwitchLatency)
	net.Connect(1, 3, link)
	net.Connect(2, 3, link)
	return &testRig{eng: eng, net: net, h1: h1, h2: h2, sw: sw}
}

func rawPacket(to NodeID, n int) *Packet {
	return &Packet{To: to, Raw: make([]byte, n)}
}

func TestEndToEndDelivery(t *testing.T) {
	rig := newRig(t, LinkConfig{PropDelay: 1 * sim.Microsecond, Bandwidth: 10e9})
	var gotAt sim.Time
	var got *Packet
	rig.h2.OnReceive(func(p *Packet) { got, gotAt = p, rig.eng.Now() })
	rig.h1.Send(rawPacket(2, 100))
	rig.eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// tx stack 1µs + ser(146B@10G ≈ 116ns) + prop 1µs + switch 0.5µs +
	// ser + prop 1µs + rx stack 1µs ≈ 4.73µs.
	if gotAt < 4*sim.Microsecond || gotAt > 6*sim.Microsecond {
		t.Fatalf("delivery at %v, want ≈4.7µs", gotAt)
	}
	if got.Hops != 2 {
		t.Fatalf("hops = %d, want 2", got.Hops)
	}
	if rig.net.Stats().Delivered != 1 {
		t.Fatalf("stats %+v", rig.net.Stats())
	}
}

func TestSerializationDelayScalesWithSize(t *testing.T) {
	link := LinkConfig{PropDelay: 0, Bandwidth: 1e9} // 1 Gbps to amplify
	rig := newRig(t, link)
	var small, large sim.Time
	rig.h2.OnReceive(func(p *Packet) {
		if len(p.Raw) < 1000 {
			small = rig.eng.Now() - p.SentAt
		} else {
			large = rig.eng.Now() - p.SentAt
		}
	})
	rig.h1.Send(rawPacket(2, 10))
	rig.eng.Run()
	rig.h1.Send(rawPacket(2, 10000))
	rig.eng.Run()
	if large <= small {
		t.Fatalf("large packet (%v) not slower than small (%v)", large, small)
	}
	// 10 kB at 1 Gbps is ~80 µs of serialization per hop.
	if large-small < 100*sim.Microsecond {
		t.Fatalf("serialization delta %v too small", large-small)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	link := LinkConfig{PropDelay: 0, Bandwidth: 1e9, QueueBytes: 2000}
	rig := newRig(t, link)
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	// Burst far beyond the 2 kB queue. All Sends enter the wire at ~1µs
	// (same stack latency), so most must tail-drop.
	for i := 0; i < 50; i++ {
		rig.h1.Send(rawPacket(2, 1000))
	}
	rig.eng.Run()
	if delivered >= 50 {
		t.Fatal("no drops despite overflowing queue")
	}
	if rig.net.Stats().DroppedFull == 0 {
		t.Fatal("DroppedFull not counted")
	}
	if delivered == 0 {
		t.Fatal("everything dropped; queue model broken")
	}
}

func TestRandomLoss(t *testing.T) {
	link := LinkConfig{PropDelay: 0, Bandwidth: 0, LossRate: 0.5}
	rig := newRig(t, link)
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		rig.h1.Send(rawPacket(2, 10))
	}
	rig.eng.Run()
	// Two lossy hops at 50% each → ~25% delivery.
	frac := float64(delivered) / n
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("delivered %.2f, want ≈0.25", frac)
	}
	if rig.net.Stats().DroppedRand == 0 {
		t.Fatal("DroppedRand not counted")
	}
}

func TestFailedNodeDropsTraffic(t *testing.T) {
	rig := newRig(t, DefaultLink())
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	rig.h2.Fail()
	rig.h1.Send(rawPacket(2, 100))
	rig.eng.Run()
	if delivered != 0 {
		t.Fatal("failed host received traffic")
	}
	rig.h2.Restart()
	rig.h1.Send(rawPacket(2, 100))
	rig.eng.Run()
	if delivered != 1 {
		t.Fatal("restarted host did not receive traffic")
	}
}

func TestFailDropsInFlightStackWork(t *testing.T) {
	rig := newRig(t, DefaultLink())
	delivered := 0
	rig.h2.OnReceive(func(p *Packet) { delivered++ })
	rig.h1.Send(rawPacket(2, 100))
	// Fail h2 while the packet is in flight and keep it down until after
	// the packet would have arrived: the packet must be lost. Restarting
	// afterwards must not resurrect it.
	rig.eng.RunUntil(2 * sim.Microsecond)
	rig.h2.Fail()
	rig.eng.RunUntil(20 * sim.Microsecond)
	rig.h2.Restart()
	rig.eng.Run()
	if delivered != 0 {
		t.Fatal("packet survived host crash")
	}
	if rig.net.Stats().DroppedDead == 0 {
		t.Fatal("crash drop not counted")
	}
}

func TestNoRouteDrops(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, sim.NewRand(1))
	h1 := NewHost(net, 1, "h1", StackModel{}, 1, sim.NewRand(2))
	NewHost(net, 2, "h2", StackModel{}, 1, sim.NewRand(3))
	// No links at all.
	h1.Send(rawPacket(2, 10))
	eng.Run()
	if net.Stats().DroppedDead == 0 {
		t.Fatal("unroutable packet not counted as dead")
	}
}

func TestRoutingMultiHopChain(t *testing.T) {
	// h1 - s1 - s2 - s3 - h2: the chain used for replication topologies.
	eng := sim.NewEngine()
	r := sim.NewRand(5)
	net := New(eng, r.Fork())
	h1 := NewHost(net, 1, "h1", StackModel{}, 1, r.Fork())
	h2 := NewHost(net, 2, "h2", StackModel{}, 1, r.Fork())
	var sws []*Switch
	for i := 0; i < 3; i++ {
		sws = append(sws, NewSwitch(net, NodeID(10+i), "s", DefaultSwitchLatency))
	}
	net.Connect(1, 10, DefaultLink())
	net.Connect(10, 11, DefaultLink())
	net.Connect(11, 12, DefaultLink())
	net.Connect(12, 2, DefaultLink())
	var got *Packet
	h2.OnReceive(func(p *Packet) { got = p })
	h1.Send(rawPacket(2, 64))
	eng.Run()
	if got == nil {
		t.Fatal("not delivered over chain")
	}
	if got.Hops != 4 {
		t.Fatalf("hops = %d, want 4", got.Hops)
	}
	for _, s := range sws {
		if s.Forwarded() != 1 {
			t.Fatalf("switch forwarded %d", s.Forwarded())
		}
	}
}

func TestPMNetPacketSize(t *testing.T) {
	msg := protocol.Fragment(protocol.TypeUpdateReq, 1, 1, make([]byte, 100), 0)[0]
	p := &Packet{To: 2, Msg: msg, PMNet: true}
	want := UDPOverhead + protocol.HeaderSize + 100
	if p.Size() != want {
		t.Fatalf("Size() = %d, want %d", p.Size(), want)
	}
	q := p.Clone()
	if q.Size() != want || q == p {
		t.Fatal("clone broken")
	}
}

func TestStackModelSampling(t *testing.T) {
	r := sim.NewRand(9)
	m := StackModel{Base: 1000, JitterMedian: 500, JitterSigma: 0.5}
	var sum sim.Time
	const n = 100000
	min := sim.Time(1 << 62)
	for i := 0; i < n; i++ {
		v := m.Sample(r)
		if v < m.Base {
			t.Fatalf("sample %v below base", v)
		}
		if v < min {
			min = v
		}
		sum += v
	}
	mean := float64(sum) / n
	want := float64(m.Mean())
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("sample mean %.0f, analytic %.0f", mean, want)
	}
	// No-jitter model is deterministic.
	fixed := StackModel{Base: 2000, JitterMedian: 100}
	if fixed.Sample(r) != 2100 {
		t.Fatal("jitterless model must be base+median")
	}
}

// TestHostDrawsAsSample: a host, which takes its stack's log median once,
// draws exactly what StackModel.Sample draws from the same stream — for the
// canonical stacks and for the jitterless and sigma-less shapes.
func TestHostDrawsAsSample(t *testing.T) {
	for _, m := range []StackModel{
		ClientKernelStack, ServerKernelStack, BypassStack,
		{Base: 2000, JitterMedian: 100}, {Base: 2000, JitterSigma: 0.5},
	} {
		h := NewHost(New(sim.NewEngine(), sim.NewRand(1)), 1, "h", m, 1, sim.NewRand(9))
		r := sim.NewRand(9)
		for i := 0; i < 1000; i++ {
			if got, want := h.stackDelay(), m.Sample(r); got != want {
				t.Fatalf("%+v draw %d: host %v, Sample %v", m, i, got, want)
			}
		}
	}
}

func TestCPUSerializesOnOneWorker(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 1)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		cpu.Submit(10*sim.Microsecond, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	for i, at := range done {
		want := sim.Time(i+1) * 10 * sim.Microsecond
		if at != want {
			t.Fatalf("job %d at %v, want %v", i, at, want)
		}
	}
	if cpu.Jobs() != 3 || cpu.BusyTime() != 30*sim.Microsecond {
		t.Fatal("cpu accounting wrong")
	}
}

func TestCPUParallelWorkers(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 4)
	var last sim.Time
	for i := 0; i < 4; i++ {
		cpu.Submit(10*sim.Microsecond, func() { last = eng.Now() })
	}
	eng.Run()
	if last != 10*sim.Microsecond {
		t.Fatalf("4 jobs on 4 workers finished at %v, want 10µs", last)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, sim.NewRand(1))
	NewHost(net, 1, "a", StackModel{}, 1, sim.NewRand(2))
	defer func() {
		if recover() == nil {
			t.Error("duplicate node id did not panic")
		}
	}()
	NewHost(net, 1, "b", StackModel{}, 1, sim.NewRand(3))
}

func TestConnectUnknownNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, sim.NewRand(1))
	NewHost(net, 1, "a", StackModel{}, 1, sim.NewRand(2))
	defer func() {
		if recover() == nil {
			t.Error("connect to unknown node did not panic")
		}
	}()
	net.Connect(1, 99, DefaultLink())
}

func TestNetworkNames(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, sim.NewRand(1))
	NewHost(net, 7, "client-0", StackModel{}, 1, sim.NewRand(2))
	if net.Name(7) != "client-0" {
		t.Fatal("name lookup failed")
	}
	if net.Name(99) == "" {
		t.Fatal("unknown node must format a fallback name")
	}
}

func TestCrossTrafficRateAndTag(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewRand(21)
	net := New(eng, r.Fork())
	a := NewHost(net, 1, "a", StackModel{}, 1, r.Fork())
	_ = a
	b := NewHost(net, 2, "b", StackModel{}, 1, r.Fork())
	net.Connect(1, 2, LinkConfig{PropDelay: 0, Bandwidth: 100e9})
	var got uint64
	b.OnReceive(func(p *Packet) {
		if p.Tenant != 7 {
			t.Error("tenant tag lost")
		}
		got++
	})
	// 4 Gbps of 1446B frames over 10 ms ≈ 3458 packets.
	ct := NewCrossTraffic(net, r.Fork(), 1, 2, 1400, 4e9, 7)
	ct.Start()
	eng.RunUntil(10 * sim.Millisecond)
	ct.Stop()
	eng.Run()
	if got < 3000 || got > 3900 {
		t.Fatalf("received %d background packets, want ≈3458", got)
	}
	if ct.Sent() < got {
		t.Fatal("sent counter below received")
	}
}

func TestCrossTrafficStops(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewRand(22)
	net := New(eng, r.Fork())
	NewHost(net, 1, "a", StackModel{}, 1, r.Fork())
	NewHost(net, 2, "b", StackModel{}, 1, r.Fork())
	net.Connect(1, 2, DefaultLink())
	ct := NewCrossTraffic(net, r.Fork(), 1, 2, 1400, 1e9, 0)
	ct.Start()
	ct.Start() // idempotent
	eng.RunUntil(sim.Millisecond)
	ct.Stop()
	eng.Run() // must drain: a stopped generator schedules no more events
	if eng.Pending() != 0 {
		t.Fatalf("%d events leaked after Stop", eng.Pending())
	}
}

// Cross traffic sharing the workload's bottleneck link inflates its tail —
// the §I premise behind PMNet's tail-latency claims.
func TestCrossTrafficInflatesTail(t *testing.T) {
	measure := func(background bool) sim.Time {
		eng := sim.NewEngine()
		r := sim.NewRand(23)
		net := New(eng, r.Fork())
		client := NewHost(net, 1, "client", StackModel{}, 1, r.Fork())
		server := NewHost(net, 2, "server", StackModel{}, 1, r.Fork())
		NewHost(net, 3, "noise", StackModel{}, 1, r.Fork())
		sw := NewSwitch(net, 4, "sw", DefaultSwitchLatency)
		_ = sw
		link := LinkConfig{PropDelay: 600, Bandwidth: 10e9, QueueBytes: 512 << 10}
		net.Connect(1, 4, link)
		net.Connect(3, 4, link)
		net.Connect(4, 2, link) // shared bottleneck into the server
		var worst sim.Time
		server.OnReceive(func(p *Packet) {
			if p.Tenant == 0 && p.Raw != nil {
				if lat := eng.Now() - p.SentAt; lat > worst {
					worst = lat
				}
			}
		})
		if background {
			ct := NewCrossTraffic(net, r.Fork(), 3, 2, 1400, 9e9, 1)
			ct.Start()
			defer ct.Stop()
		}
		for i := 0; i < 300; i++ {
			i := i
			eng.At(sim.Time(i)*20*sim.Microsecond, func() {
				client.Send(&Packet{To: 2, Raw: make([]byte, 100)})
			})
		}
		eng.RunUntil(10 * sim.Millisecond)
		return worst
	}
	quiet := measure(false)
	noisy := measure(true)
	if noisy < quiet*2 {
		t.Fatalf("9G background traffic did not inflate the tail: quiet=%v noisy=%v", quiet, noisy)
	}
}
