package netsim

// Topology-aware partition planning for the testbed (DESIGN.md
// §10.6). Given the abstract topology — nodes, links, and co-location
// constraints — the planner cuts the graph at its highest-latency links, so
// the conservative lookahead (the minimum cut-link latency, see
// Fabric.Freeze) is as wide as a threshold cut can make it, then packs the
// resulting components into at most MaxParts partitions balanced by an
// event-rate estimate derived from link bandwidth.
//
// The plan is a pure function of its inputs. Callers must derive those
// inputs from configuration alone — never from the shard count — because
// the partition structure is what `-shards 1..N` byte-identity rests on:
// handoff queues exist on every partition-crossing link at EVERY shard
// count, so the event interleaving cannot depend on how many engines drive
// the partitions.

import (
	"sort"

	"pmnet/internal/sim"
)

// PlanNode describes one topology node for partition planning.
type PlanNode struct {
	ID NodeID
	// Group forces co-location: nodes sharing the same non-negative group
	// always land in one partition (entities that share mutable state
	// outside the packet path, e.g. server hosts sharing one handler
	// instance, must stay on one engine). Negative = unconstrained.
	Group int
}

// PlanLink describes one bidirectional link of the abstract topology.
type PlanLink struct {
	A, B NodeID
	Cfg  LinkConfig
}

// PlanOptions bounds the plan.
type PlanOptions struct {
	// MaxParts caps the partition count; when the threshold cut yields more
	// components than this, components are packed together by LPT over the
	// event-rate estimate. ≤ 0 means no cap. Every partition costs a drain
	// scan and a heap peek per epoch, so callers keep this small.
	MaxParts int
}

// Plan maps every node to its partition.
type Plan struct {
	Part   map[NodeID]int
	NParts int
	// Lookahead is the minimum latency over links whose endpoints landed in
	// different partitions (0 when nothing is cut). Fabric.Freeze recomputes
	// the binding value from the built topology; this one is for tests and
	// planning diagnostics.
	Lookahead sim.Time
}

// linkLatency is the conservative latency bound of one link direction: the
// propagation delay plus minimum-datagram serialization — the same formula
// Fabric.Freeze uses for the lookahead, so the planner optimizes exactly the
// quantity the runner's epoch width is bound by.
func linkLatency(cfg LinkConfig) sim.Time {
	l := cfg.PropDelay
	if cfg.Bandwidth > 0 {
		l += sim.Time(float64(UDPOverhead*8) / cfg.Bandwidth * 1e9)
	}
	return l
}

// PlanPartitions computes a partition plan: merge links from the lowest
// latency tier upward — keeping cheap links (device chains, NIC
// bump-in-the-wire hops) internal to a partition — and stop just before the
// tier whose merge would fuse the whole graph, so only the most expensive
// links are cut and the lookahead is maximal among threshold cuts. The
// surviving components are packed into at most MaxParts partitions by LPT
// over an event-rate estimate (sum of incident link bandwidth), numbered
// deterministically.
func PlanPartitions(nodes []PlanNode, links []PlanLink, opt PlanOptions) Plan {
	n := len(nodes)
	if n == 0 {
		panic("netsim: plan: no nodes")
	}
	// Deterministic node order regardless of caller order.
	sorted := append([]PlanNode(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	idx := make(map[NodeID]int, n)
	for i, nd := range sorted {
		if _, dup := idx[nd.ID]; dup {
			panic("netsim: plan: duplicate node id")
		}
		idx[nd.ID] = i
	}

	uf := newUnionFind(n)
	// Co-location constraints first: group members are one super-node.
	groupRep := make(map[int]int)
	for i, nd := range sorted {
		if nd.Group < 0 {
			continue
		}
		if rep, ok := groupRep[nd.Group]; ok {
			uf.union(rep, i)
		} else {
			groupRep[nd.Group] = i
		}
	}

	// Edges sorted by (latency, endpoints) — ascending tiers.
	type edge struct {
		a, b int
		lat  sim.Time
	}
	edges := make([]edge, 0, len(links))
	for _, l := range links {
		a, aok := idx[l.A]
		b, bok := idx[l.B]
		if !aok || !bok {
			panic("netsim: plan: link references unknown node")
		}
		if a > b {
			a, b = b, a
		}
		edges = append(edges, edge{a: a, b: b, lat: linkLatency(l.Cfg)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].lat != edges[j].lat {
			return edges[i].lat < edges[j].lat
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	// Merge tier by tier; stop before the tier that would fuse everything.
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].lat == edges[i].lat {
			j++
		}
		trial := uf.clone()
		for k := i; k < j; k++ {
			trial.union(edges[k].a, edges[k].b)
		}
		if trial.components() == 1 {
			break
		}
		uf = trial
		i = j
	}

	// Event-rate estimate per node: saturated-link event rate is
	// proportional to bandwidth, so sum incident Gbps (+1 per link so
	// zero-bandwidth links still count).
	weight := make([]float64, n)
	for i := range weight {
		weight[i] = 1
	}
	for _, l := range links {
		w := 1 + l.Cfg.Bandwidth/1e9
		weight[idx[l.A]] += w
		weight[idx[l.B]] += w
	}

	// Components in deterministic order: by smallest member index.
	compOf := make(map[int]int) // root -> component index
	var compWeight []float64
	var compMembers [][]int
	for i := 0; i < n; i++ {
		r := uf.find(i)
		c, ok := compOf[r]
		if !ok {
			c = len(compMembers)
			compOf[r] = c
			compMembers = append(compMembers, nil)
			compWeight = append(compWeight, 0)
		}
		compMembers[c] = append(compMembers[c], i)
		compWeight[c] += weight[i]
	}

	// Pack components into partitions. Under the cap each component is its
	// own partition; over it, LPT (heaviest first, least-loaded bin, all
	// ties broken by lowest index) keeps estimated event rates balanced.
	nparts := len(compMembers)
	partOf := make([]int, len(compMembers)) // component -> partition
	if opt.MaxParts > 0 && nparts > opt.MaxParts {
		nparts = opt.MaxParts
		order := make([]int, len(compMembers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return compWeight[order[i]] > compWeight[order[j]]
		})
		load := make([]float64, nparts)
		for _, c := range order {
			best := 0
			for b := 1; b < nparts; b++ {
				if load[b] < load[best] {
					best = b
				}
			}
			partOf[c] = best
			load[best] += compWeight[c]
		}
	} else {
		for c := range partOf {
			partOf[c] = c
		}
	}

	p := Plan{Part: make(map[NodeID]int, n), NParts: nparts}
	for c, members := range compMembers {
		for _, i := range members {
			p.Part[sorted[i].ID] = partOf[c]
		}
	}
	// Final lookahead from the final assignment (packing can only remove
	// cut links, never add one below the threshold).
	for _, l := range links {
		if p.Part[l.A] == p.Part[l.B] {
			continue
		}
		lat := linkLatency(l.Cfg)
		if p.Lookahead == 0 || lat < p.Lookahead {
			p.Lookahead = lat
		}
	}
	return p
}

// unionFind is a plain union-find with path compression (no ranks — the
// planner runs once per testbed over tens of nodes).
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

// union merges the two sets, keeping the smaller root — so component
// identity (and with it partition numbering) is independent of merge order.
func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

func (u *unionFind) clone() *unionFind {
	return &unionFind{parent: append([]int(nil), u.parent...)}
}

func (u *unionFind) components() int {
	c := 0
	for i := range u.parent {
		if u.find(i) == i {
			c++
		}
	}
	return c
}
