package netsim

// The dense forwarding table. NodeIDs are small integers, so everything the
// packet path asks of the topology — is this node down, who handles its
// packets, which egress link leads toward that destination — is a slice
// index, not a map lookup. The table is built once per topology: by
// Fabric.Freeze for a fabric (one table, shared read-only by every partition
// except for the per-node down flags, which only the owning partition reads
// or writes), lazily at first traffic for a standalone Network, and again
// after AddNode/Connect/SetECMP invalidate it there.

import (
	"fmt"
	"math"
	"sort"
)

// nodeRec is one node's forwarding record. Before the table exists it is the
// build source (Network.own, ports unset); inside the table the records sit
// in ascending id order, 64 bytes each.
type nodeRec struct {
	id    NodeID
	node  Node
	net   *Network // the network (fabric partition) the node was added to
	ports []*link  // egress links in ascending neighbour-id order
	down  bool     // failed: drops everything addressed to or crossing it
}

const (
	// noRoute marks a (node, dst) pair with no usable next hop: dst is
	// unreachable, or the node has no link back toward its BFS parent.
	noRoute = math.MinInt32
	// maxNodeID bounds the id-indexed slice (2 B per id up to the largest).
	maxNodeID = 1 << 24
)

// fwdTable is the forwarding state of one frozen topology with N nodes.
type fwdTable struct {
	idx  []int16 // NodeID -> index into recs, -1 where no node has that id
	recs []nodeRec
	// next[at*N+dst] is the port (index into recs[at].ports) toward dst, or
	// noRoute. Under ECMP, a pair with several equal-cost next hops holds ^g
	// instead, g the offset of its member group in sets.
	next []int32
	// sets holds the ECMP member groups back to back, each as its size k
	// followed by k ports in ascending neighbour order; a node's consecutive
	// destinations with identical members share one group.
	sets []int32
}

// index returns id's position in recs, or -1 for an id no node carries.
func (t *fwdTable) index(id NodeID) int {
	if uint(id) < uint(len(t.idx)) {
		return int(t.idx[id])
	}
	return -1
}

// buildFwdTable computes the table for the given nodes and directed links (a
// link wired twice keeps its last wiring). Routing is BFS from every
// destination over the links taken in ascending (from, to) order: the next
// hop from a node toward dst is its parent on the BFS tree rooted at dst, and
// its ECMP members are all neighbours one level closer to dst. Neighbour
// order steers the parent choice between equal-cost paths, so it is fixed by
// id, never by wiring or map order. Datacenter fabrics use flow-consistent
// (ECMP) load balancing; on the tree/chain topologies there is a single
// shortest path, so plain BFS reproduces in-order delivery within a flow
// (§IV-A4 footnote). routes_model_test.go keeps the map-based builders this
// replaced as the reference.
func buildFwdTable(nodes []nodeRec, links []*link, ecmp bool) *fwdTable {
	n := len(nodes)
	if n > math.MaxInt16 {
		panic(fmt.Sprintf("netsim: %d nodes exceed the dense index (%d)", n, math.MaxInt16))
	}
	t := &fwdTable{recs: make([]nodeRec, n), next: make([]int32, n*n)}
	copy(t.recs, nodes)
	sort.Slice(t.recs, func(i, j int) bool { return t.recs[i].id < t.recs[j].id })
	if n > 0 {
		max := t.recs[n-1].id
		if t.recs[0].id < 0 || max >= maxNodeID {
			panic(fmt.Sprintf("netsim: node ids %d..%d outside the dense index range [0,%d)", t.recs[0].id, max, maxNodeID))
		}
		t.idx = make([]int16, max+1)
	}
	for i := range t.idx {
		t.idx[i] = -1
	}
	for i := range t.recs {
		t.idx[t.recs[i].id] = int16(i)
	}
	for i := range t.next {
		t.next[i] = noRoute
	}

	// Ports: one backing array sorted by (from, to), each node's egress links
	// a sub-slice of it. off[i] is node i's first port in that array.
	sorted := make([]*link, len(links))
	copy(sorted, links)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].from != sorted[j].from {
			return sorted[i].from < sorted[j].from
		}
		return sorted[i].to < sorted[j].to
	})
	w := 0
	for i, l := range sorted {
		if i+1 < len(sorted) && sorted[i+1].from == l.from && sorted[i+1].to == l.to {
			continue // rewired: the later Connect wins
		}
		sorted[w] = l
		w++
	}
	sorted = sorted[:w]
	off := make([]int32, n+1)
	for lo := 0; lo < len(sorted); {
		i := t.idx[sorted[lo].from]
		hi := lo
		for hi < len(sorted) && sorted[hi].from == sorted[lo].from {
			hi++
		}
		t.recs[i].ports = sorted[lo:hi:hi]
		off[i] = int32(lo)
		lo = hi
	}
	// rev[off[i]+p] is the port at the far end of node i's port p that leads
	// back to i, or noRoute when the link has no reverse direction.
	rev := make([]int32, len(sorted))
	for g, l := range sorted {
		back := t.recs[t.idx[l.to]].ports
		p := sort.Search(len(back), func(k int) bool { return back[k].to >= l.from })
		if p < len(back) && back[p].to == l.from {
			rev[g] = int32(p)
		} else {
			rev[g] = noRoute
		}
	}

	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	lastSet := make([]int32, n) // offset of each node's latest member group
	for i := range lastSet {
		lastSet[i] = -1
	}
	var members []int32
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for p, l := range t.recs[cur].ports {
				nb := int32(t.idx[l.to])
				if dist[nb] >= 0 {
					continue
				}
				dist[nb] = dist[cur] + 1
				t.next[int(nb)*n+dst] = rev[int(off[cur])+p]
				queue = append(queue, nb)
			}
		}
		if !ecmp {
			continue
		}
		for _, at := range queue[1:] {
			members = members[:0]
			for p, l := range t.recs[at].ports {
				if dist[t.idx[l.to]] == dist[at]-1 {
					members = append(members, int32(p))
				}
			}
			if len(members) < 2 {
				continue // the single-path entry already names the one member
			}
			g := lastSet[at]
			if g < 0 || !sameGroup(t.sets[g:], members) {
				g = int32(len(t.sets))
				t.sets = append(t.sets, int32(len(members)))
				t.sets = append(t.sets, members...)
				lastSet[at] = g
			}
			t.next[int(at)*n+dst] = ^g
		}
	}
	t.sets = append([]int32(nil), t.sets...) // drop append's spare capacity
	return t
}

// sameGroup reports whether the member group at the head of sets (size, then
// ports) holds exactly members.
func sameGroup(sets, members []int32) bool {
	if int(sets[0]) != len(members) {
		return false
	}
	for i, p := range members {
		if sets[1+i] != p {
			return false
		}
	}
	return true
}

// ecmpFlowHash mixes the flow identity with the hashing switch's id through
// a splitmix64 finalizer — per-switch-independent choices, deterministic
// across runs and shard counts (no RNG involved).
func ecmpFlowHash(at NodeID, pkt *Packet) uint64 {
	h := uint64(uint32(at))<<40 ^ uint64(uint32(pkt.From))<<24 ^
		uint64(uint32(pkt.To))<<8 ^ uint64(pkt.SrcPort)<<16 ^ uint64(pkt.DstPort)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
