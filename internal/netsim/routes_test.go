package netsim

// Tests of the dense forwarding table (routes.go) against the map-based
// builders it replaced (routes_model_test.go), and of the drop and
// invalidation behaviour the maps used to give for free.

import (
	"fmt"
	"testing"

	"pmnet/internal/sim"
)

// topoSpec is a topology as the tests wire it: nodes in creation order and
// bidirectional links in connection order.
type topoSpec struct {
	name  string
	nodes []NodeID
	links [][2]NodeID
}

func starSpec() topoSpec {
	s := topoSpec{name: "star", nodes: []NodeID{1000}}
	for i := 1; i <= 9; i++ {
		s.nodes = append(s.nodes, NodeID(i))
		s.links = append(s.links, [2]NodeID{NodeID(i), 1000})
	}
	return s
}

// chainSpec is h1 - s10 - s11 - s12 - h2 with an unconnected node beside it.
func chainSpec() topoSpec {
	return topoSpec{
		name:  "chain",
		nodes: []NodeID{1, 2, 10, 11, 12, 77},
		links: [][2]NodeID{{1, 10}, {10, 11}, {11, 12}, {12, 2}},
	}
}

// generatedSpec hangs two hosts off every edge switch of a generated fabric.
func generatedSpec(name string, topo Topology) topoSpec {
	s := topoSpec{name: name}
	for _, sw := range topo.Switches {
		s.nodes = append(s.nodes, sw.ID)
	}
	for _, l := range topo.Links {
		s.links = append(s.links, [2]NodeID{l.A, l.B})
	}
	host := NodeID(1)
	for _, edge := range append(append([]NodeID(nil), topo.ClientEdges...), topo.ServerEdge) {
		for k := 0; k < 2; k++ {
			s.nodes = append(s.nodes, host)
			s.links = append(s.links, [2]NodeID{host, edge})
			host++
		}
	}
	return s
}

func routeSpecs() []topoSpec {
	return []topoSpec{
		starSpec(),
		chainSpec(),
		generatedSpec("leaf-spine", LeafSpine(4, 3, 1, LinkConfig{}, 2)),
		generatedSpec("fat-tree", FatTree(4, LinkConfig{})),
	}
}

// reference runs the map-based builders over the spec.
func (s topoSpec) reference() (map[NodeID]map[NodeID]NodeID, map[NodeID]map[NodeID][]NodeID) {
	var keys [][2]NodeID
	for _, l := range s.links {
		keys = append(keys, l, [2]NodeID{l[1], l[0]})
	}
	routes := buildRouteTable(append([][2]NodeID(nil), keys...), append([]NodeID(nil), s.nodes...))
	multi := buildMultiRouteTable(keys, append([]NodeID(nil), s.nodes...))
	return routes, multi
}

// build wires the spec as a standalone Network (parts == 0) or as a frozen
// Fabric of `parts` partitions, node k of the spec in partition k mod parts.
// netOf returns the network a node's packets are transmitted on.
func (s topoSpec) build(parts int, ecmp bool) (netOf func(NodeID) *Network) {
	eng := sim.NewEngine()
	if parts == 0 {
		n := New(eng, sim.NewRand(1))
		for _, id := range s.nodes {
			NewSwitch(n, id, "n", 0)
		}
		for _, l := range s.links {
			n.Connect(l[0], l[1], LinkConfig{})
		}
		n.SetECMP(ecmp)
		return func(NodeID) *Network { return n }
	}
	f := NewFabric([]*sim.Engine{eng}, make([]int, parts), sim.NewRand(1))
	for k, id := range s.nodes {
		NewSwitch(f.Part(k%parts), id, "n", 0)
	}
	for _, l := range s.links {
		f.Connect(l[0], l[1], LinkConfig{})
	}
	f.SetECMP(ecmp)
	f.Freeze()
	return func(id NodeID) *Network { return f.Part(f.Owner(id)) }
}

// transmitHop sends pkt from `from` through the real Transmit and reports
// the neighbour whose link carried it, or false if the packet was dropped.
func transmitHop(t *testing.T, n *Network, from NodeID, pkt *Packet) (NodeID, bool) {
	t.Helper()
	tab := n.table()
	var ports []*link
	if i := tab.index(from); i >= 0 {
		ports = tab.recs[i].ports
	}
	before := make([]uint64, len(ports))
	for p, l := range ports {
		before[p] = l.sent
	}
	dead := n.stats.DroppedDead
	n.Transmit(pkt, from)
	hop, sent := NodeID(0), 0
	for p, l := range ports {
		if l.sent != before[p] {
			hop = l.to
			sent++
		}
	}
	switch {
	case sent == 1 && n.stats.DroppedDead == dead:
		return hop, true
	case sent == 0 && n.stats.DroppedDead == dead+1:
		return 0, false
	}
	t.Fatalf("Transmit from %d to %d used %d links and counted %d dead drops",
		from, pkt.To, sent, n.stats.DroppedDead-dead)
	return 0, false
}

// TestDenseRoutesMatchReference: on every topology, with ECMP on and off, as a
// standalone Network and as a Fabric of 1, 2 and 12 partitions, the dense
// table agrees with the map-based builders — the next hop of every (node,
// dst) pair as Transmit takes it, every ECMP member list in order, and the
// flow-hash pick for a sample of flows.
func TestDenseRoutesMatchReference(t *testing.T) {
	for _, spec := range routeSpecs() {
		routes, multi := spec.reference()
		for _, ecmp := range []bool{false, true} {
			for _, parts := range []int{0, 1, 2, 12} {
				t.Run(fmt.Sprintf("%s/ecmp=%v/parts=%d", spec.name, ecmp, parts), func(t *testing.T) {
					netOf := spec.build(parts, ecmp)
					groups := 0
					for _, at := range spec.nodes {
						n := netOf(at)
						tab := n.table()
						i := tab.index(at)
						for _, dst := range spec.nodes {
							if at == dst {
								continue
							}
							// What the table holds for the pair.
							e := tab.next[i*len(tab.recs)+tab.index(dst)]
							var members []NodeID
							if e < 0 && e != noRoute {
								g := tab.sets[^e:]
								for _, p := range g[1 : 1+g[0]] {
									members = append(members, tab.recs[i].ports[p].to)
								}
								groups++
							}
							var want []NodeID
							if hops := multi[at][dst]; ecmp && len(hops) > 1 {
								want = hops
							}
							if fmt.Sprint(members) != fmt.Sprint(want) {
								t.Fatalf("ECMP members at %d toward %d: %v, reference %v", at, dst, members, want)
							}
							// What Transmit does with it, over a few flows.
							for port := uint16(0); port < 5; port++ {
								pkt := &Packet{From: at, To: dst, SrcPort: 4000 + port*7, DstPort: 9000 + port}
								wantHop, wantOK := routes[at][dst]
								if len(want) > 1 {
									wantHop = want[ecmpFlowHash(at, pkt)%uint64(len(want))]
								}
								hop, ok := transmitHop(t, n, at, pkt)
								if ok != wantOK || (ok && hop != wantHop) {
									t.Fatalf("%d -> %d (ports %d,%d): next hop %d,%v, reference %d,%v",
										at, dst, pkt.SrcPort, pkt.DstPort, hop, ok, wantHop, wantOK)
								}
								if len(want) == 0 {
									break // single path: every flow takes it
								}
							}
						}
					}
					multipath := spec.name == "leaf-spine" || spec.name == "fat-tree"
					if (groups > 0) != (ecmp && multipath) {
						t.Fatalf("%d multi-member pairs with ecmp=%v on %s", groups, ecmp, spec.name)
					}
				})
			}
		}
	}
}

// TestECMPGroupsShared: destinations with the same equal-cost members share
// one group, so the flat group list stays a few entries per switch instead of
// one list per (node, dst) pair.
func TestECMPGroupsShared(t *testing.T) {
	spec := generatedSpec("leaf-spine", LeafSpine(4, 3, 1, LinkConfig{}, 2))
	tab := spec.build(0, true)(1).table()
	pairs := 0
	for _, e := range tab.next {
		if e < 0 && e != noRoute {
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no multi-member pairs on a three-spine fabric")
	}
	// A few groups per node at most, whatever the pair count.
	if limit := 4 * len(tab.recs) * 4; len(tab.sets) > limit {
		t.Fatalf("%d multi-member pairs took %d group entries, want ≤ %d", pairs, len(tab.sets), limit)
	}
	if len(tab.sets) >= pairs*4 {
		t.Fatalf("%d group entries for %d pairs: groups are not shared", len(tab.sets), pairs)
	}
}

// TestUnroutableDropsDead: an unknown sender, an unknown destination, a
// destination with no path and a node with no link back toward the
// destination all count one DroppedDead and use no link.
func TestUnroutableDropsDead(t *testing.T) {
	for _, parts := range []int{0, 2} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			spec := chainSpec()
			netOf := spec.build(parts, false)
			cases := []struct {
				name     string
				from, to NodeID
			}{
				{"unknown sender", 500, 2},
				{"sender id beyond the index", 1 << 20, 2},
				{"negative sender id", -3, 2},
				{"unknown destination", 1, 500},
				{"negative destination id", 1, -1},
				{"no path", 1, 77},
				{"from the island", 77, 1},
				{"loopback at an unknown node", 500, 500},
			}
			for _, tc := range cases {
				n := netOf(1)
				if tc.from == 77 {
					n = netOf(77)
				}
				if _, ok := transmitHop(t, n, tc.from, &Packet{To: tc.to}); ok {
					t.Errorf("%s: packet %d -> %d was forwarded", tc.name, tc.from, tc.to)
				}
			}
			if parts > 0 {
				// A node that lives in another partition is no sender here.
				wrong := netOf(2)
				if wrong == netOf(1) {
					t.Fatal("nodes 1 and 2 share a partition; the spec no longer splits them")
				}
				if _, ok := transmitHop(t, wrong, 1, &Packet{To: 2}); ok {
					t.Error("a partition forwarded from a node it does not own")
				}
			}
		})
	}
	// One direction only: 1 -> 2 is wired, 2 -> 1 is not. Routes follow the
	// BFS tree rooted at the destination, so neither end can use the link —
	// exactly what the map-based tables decided.
	n := New(sim.NewEngine(), sim.NewRand(1))
	NewSwitch(n, 1, "a", 0)
	NewSwitch(n, 2, "b", 0)
	n.wired = append(n.wired, n.newLink(1, 2, LinkConfig{}))
	for _, dir := range [][2]NodeID{{2, 1}, {1, 2}} {
		if _, ok := transmitHop(t, n, dir[0], &Packet{To: dir[1]}); ok {
			t.Errorf("one-way link: packet %d -> %d was forwarded", dir[0], dir[1])
		}
	}
}

// TestNodeDownAcrossTableBuilds: SetNodeDown holds whether it comes before
// the table exists, after it, or before a rebuild.
func TestNodeDownAcrossTableBuilds(t *testing.T) {
	rig := newRig(t, DefaultLink())
	delivered := 0
	rig.h2.OnReceive(func(*Packet) { delivered++ })
	send := func(wantDelivered int, wantDead uint64, why string) {
		t.Helper()
		rig.h1.Send(rawPacket(2, 64))
		rig.eng.Run()
		if delivered != wantDelivered || rig.net.Stats().DroppedDead != wantDead {
			t.Fatalf("%s: delivered %d, dead %d; want %d, %d",
				why, delivered, rig.net.Stats().DroppedDead, wantDelivered, wantDead)
		}
	}
	rig.net.SetNodeDown(2, true) // no table yet
	if rig.net.fwd != nil {
		t.Fatal("the table exists before any traffic")
	}
	send(0, 1, "down before the table was built")
	rig.net.SetNodeDown(2, false)
	send(1, 1, "restored after the table was built")
	rig.net.SetNodeDown(3, true) // the switch in the middle
	send(1, 2, "transit node down")
	NewHost(rig.net, 4, "h4", StackModel{}, 1, sim.NewRand(9)) // invalidates
	rig.net.Connect(4, 3, DefaultLink())
	if rig.net.fwd != nil {
		t.Fatal("AddNode/Connect left the stale table in place")
	}
	send(1, 3, "transit node still down after the rebuild")
	rig.net.SetNodeDown(3, false)
	send(2, 3, "transit node restored")
}

// TestTopologyChangeAfterTraffic: AddNode, ConnectAsym and SetECMP after
// packets have flowed drop the table, and the next packet routes over the
// new topology.
func TestTopologyChangeAfterTraffic(t *testing.T) {
	eng, net, server, clients, sws := ecmpRig(t)
	net.SetECMP(false)
	server.OnReceive(func(*Packet) {})
	burst := func() {
		for _, c := range clients {
			c.Send(&Packet{To: 9, SrcPort: uint16(c.ID()), Raw: make([]byte, 64)})
		}
		eng.Run()
	}
	burst()
	if s0, s1 := sws[200].Forwarded(), sws[201].Forwarded(); s0 != 8 || s1 != 0 {
		t.Fatalf("single-path: spines forwarded %d and %d, want 8 and 0", s0, s1)
	}
	net.SetECMP(true) // after traffic
	burst()
	if s1 := sws[201].Forwarded(); s1 == 0 {
		t.Fatal("SetECMP after traffic: every flow still crosses spine 200")
	}
	// A new host behind a new asymmetric link.
	late := NewHost(net, 10, "late", StackModel{}, 1, sim.NewRand(7))
	slow := DefaultLink()
	slow.PropDelay *= 10
	net.ConnectAsym(10, 101, DefaultLink(), slow)
	got := 0
	late.OnReceive(func(*Packet) { got++ })
	clients[0].Send(&Packet{To: 10, Raw: make([]byte, 64)})
	eng.Run()
	if got != 1 {
		t.Fatal("a host added after traffic is unreachable")
	}
	// Rewiring a pair replaces its links, as the map keyed by (a, b) did.
	net.Connect(10, 101, LinkConfig{QueueBytes: 1})
	clients[0].Send(&Packet{To: 10, Raw: make([]byte, 64)})
	eng.Run()
	if got != 2 {
		t.Fatal("a rewired link does not carry traffic")
	}
	if l := net.findLink(101, 10); l.cfg.QueueBytes != 1 || l.sent != 1 {
		t.Fatalf("the rewired 101->10 link: cfg %+v, sent %d; want the new config and one packet", l.cfg, l.sent)
	}
}
