package pmnet

import (
	"fmt"

	"pmnet/internal/netsim"
	"pmnet/internal/sim"
)

// Node IDs used by the cluster description: clients at 1..N, plain switch at
// 1000, PMNet devices at 2000+i, servers at 3000+i, noise host at 4000.
const (
	torID    netsim.NodeID = 1000
	devBase  netsim.NodeID = 2000
	serverID netsim.NodeID = 3000
	noiseID  netsim.NodeID = 4000
)

// maxPartitions caps the planner's partition count. Clients are independent
// of each other (they only meet at the ToR), so they could each be a
// partition — but every partition costs a drain scan and a heap peek per
// epoch, and epochs are ~sub-microsecond, so hundreds of partitions would
// drown the win. Twelve keeps per-epoch bookkeeping flat while still feeding
// more shards than the testbed ever usefully runs.
const maxPartitions = 12

// serverColoGroup is the planner co-location group of the server hosts: they
// must share one partition, because a plain cfg.Handler is one shared
// instance across the rack and so must stay on one engine.
const serverColoGroup = 0

// nodeKind says what NewTestbed instantiates for a cluster node.
type nodeKind uint8

const (
	serverNode nodeKind = iota
	switchNode          // the rack ToR and every generated fabric switch
	clientNode
	deviceNode
	noiseNode // the cross-traffic source
)

// clusterNode is one machine of the testbed. group is the planner
// co-location group (netsim.PlanNode.Group); negative = unconstrained.
type clusterNode struct {
	id    netsim.NodeID
	name  string
	kind  nodeKind
	group int
}

// clusterLink is one bidirectional link: ab governs a→b, ba governs b→a.
type clusterLink struct {
	a, b   netsim.NodeID
	ab, ba netsim.LinkConfig
}

// cluster is the paper's testbed (§VI-A1: clients, a merging ToR, a PMNet
// device chain, a server rack) written out once, as data. It is a pure
// function of the Config and the only input to both the partition planner
// and NewTestbed's build loop, so the two cannot drift apart. Node and link
// order are load-bearing: hosts fork their RNG streams from the root in node
// order and impaired links fork theirs in link order.
type cluster struct {
	nodes []clusterNode
	links []clusterLink
	ecmp  bool // the generated fabric has equal-cost multipaths
}

func (c *cluster) node(id netsim.NodeID, name string, kind nodeKind, group int) {
	c.nodes = append(c.nodes, clusterNode{id: id, name: name, kind: kind, group: group})
}

func (c *cluster) link(a, b netsim.NodeID, cfg netsim.LinkConfig) {
	c.links = append(c.links, clusterLink{a: a, b: b, ab: cfg, ba: cfg})
}

// describeCluster lists the cluster cfg asks for. cfg has defaults applied;
// link is the resolved host link model.
func describeCluster(cfg *Config, link netsim.LinkConfig) *cluster {
	c := &cluster{}
	for i := 0; i < cfg.Servers; i++ {
		c.node(serverID+netsim.NodeID(i), fmt.Sprintf("server-%d", i), serverNode, serverColoGroup)
	}
	// Plain ToR switch merging client traffic (§VI-A1).
	c.node(torID, "tor", switchNode, -1)

	// Generated switch fabric between the clients and the rack ToR (leaf-
	// spine / fat-tree): clients spread round-robin over its client edges and
	// the ToR uplinks from its server edge at the inter-rack delay.
	clientEdges := []netsim.NodeID{torID}
	if topo, ok := cfg.fabricTopology(link); ok {
		for _, sw := range topo.Switches {
			c.node(sw.ID, sw.Name, switchNode, -1)
		}
		for _, tl := range topo.Links {
			c.link(tl.A, tl.B, tl.Cfg)
		}
		uplink := link
		uplink.PropDelay = 2 * link.PropDelay
		c.link(topo.ServerEdge, torID, uplink)
		c.ecmp = topo.ECMP
		clientEdges = topo.ClientEdges
	}

	// Client access links carry the configured impairments; ImpairAckPath
	// scopes them to the edge→client (ACK) direction only.
	up, down := link, link
	if cfg.Impair.Enabled() {
		down.Impair = cfg.Impair
		if !cfg.ImpairAckPath {
			up.Impair = cfg.Impair
		}
	}
	for i := 0; i < cfg.Clients; i++ {
		id := netsim.NodeID(i + 1)
		c.node(id, fmt.Sprintf("client-%d", i), clientNode, -1)
		c.links = append(c.links, clusterLink{a: id, b: clientEdges[i%len(clientEdges)], ab: up, ba: down})
	}

	// PMNet devices between ToR and server (switch chain) or at the server
	// (NIC): tor — dev0 — dev1 — ... — server. The chain implements §IV-C
	// replication. Chained devices sit adjacent in the rack (§IV-C places the
	// switches in series), so the inter-device patch links are much shorter
	// than the client links — this is what keeps the paper's replication
	// overhead at ~16%.
	prev, last := torID, link
	if cfg.Design != ClientServer {
		for i := 0; i < cfg.Replication; i++ {
			id := devBase + netsim.NodeID(i)
			c.node(id, fmt.Sprintf("pmnet-%d", i), deviceNode, -1)
			l := link
			if i > 0 {
				l.PropDelay = 200 * sim.Nanosecond
			}
			c.link(prev, id, l)
			prev = id
		}
		if cfg.Design == PMNetNIC {
			// Bump-in-the-wire at the server: negligible wire length.
			last.PropDelay = 100 * sim.Nanosecond
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		c.link(prev, serverID+netsim.NodeID(i), last)
	}

	// Background cross-traffic source: a noise host on the ToR, sharing the
	// server-side bottleneck with the workload.
	if cfg.CrossTrafficGbps > 0 {
		c.node(noiseID, "noise", noiseNode, -1)
		c.link(noiseID, torID, link)
	}
	return c
}

// plan partitions the cluster for cfg. Shards ≥ 1 cuts the graph at its
// highest-latency tier (so the lookahead is as wide as possible: device-chain
// patch links and NIC bump-in-the-wire hops merge, full-latency edge links
// are cut) into ≤ maxPartitions partitions — the same plan for every shard
// count, or `-shards 1` and `-shards N` would see different event
// interleavings (DESIGN.md §10.4 rests on this). Shards == 0 plans one
// partition: no link is cut, no handoff queue exists, and the run is one
// engine firing events in (time, scheduling) order. Cross-traffic plans one
// partition too, because stopping the generator when the workload finishes
// is an immediate intervention across what would be a partition boundary;
// that depends only on the Config, so shard-count invariance holds.
func (c *cluster) plan(cfg *Config) netsim.Plan {
	nodes := make([]netsim.PlanNode, len(c.nodes))
	for i, n := range c.nodes {
		nodes[i] = netsim.PlanNode{ID: n.id, Group: n.group}
	}
	links := make([]netsim.PlanLink, len(c.links))
	for i, l := range c.links {
		// The planner reads only latency and bandwidth, identical in both
		// directions — impairments never shrink a link's latency bound.
		links[i] = netsim.PlanLink{A: l.a, B: l.b, Cfg: l.ab}
	}
	maxParts := maxPartitions
	if cfg.Shards <= 0 || cfg.CrossTrafficGbps > 0 {
		maxParts = 1
	}
	return netsim.PlanPartitions(nodes, links, netsim.PlanOptions{MaxParts: maxParts})
}
