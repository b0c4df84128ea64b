package netsim

// The map-based route builders the dense table (routes.go) replaced, kept
// verbatim as its reference model: TestDenseRoutesMatchReference holds every
// next hop, every ECMP member list and every flow-hash pick of the dense
// table to what these compute.

import "sort"

// buildRouteTable is the shared BFS next-hop builder, used both by a standalone
// Network (over its own links and nodes) and by a Fabric (over the global
// topology spanning every partition). Both inputs may arrive in map order:
// they are sorted here, because neighbour order steers BFS parent choice
// between equal-cost paths — adjacency lists built in map iteration order
// could pick different next hops (and thus different delivery times) from
// run to run on multipath topologies.
func buildRouteTable(linkKeys [][2]NodeID, srcs []NodeID) map[NodeID]map[NodeID]NodeID {
	routes := make(map[NodeID]map[NodeID]NodeID, len(srcs))
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i][0] != linkKeys[j][0] {
			return linkKeys[i][0] < linkKeys[j][0]
		}
		return linkKeys[i][1] < linkKeys[j][1]
	})
	adj := make(map[NodeID][]NodeID)
	for _, key := range linkKeys {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		// BFS from src, recording each node's parent; next hop from any
		// node toward src is its parent on the BFS tree rooted at src.
		parent := map[NodeID]NodeID{src: src}
		order := []NodeID{src}
		queue := []NodeID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := parent[nb]; !seen {
					parent[nb] = cur
					order = append(order, nb)
					queue = append(queue, nb)
				}
			}
		}
		// Walk the BFS discovery order, not the parent map.
		for _, node := range order {
			if node == src {
				continue
			}
			if routes[node] == nil {
				routes[node] = make(map[NodeID]NodeID)
			}
			routes[node][src] = parent[node]
		}
	}
	return routes
}

// buildMultiRouteTable is the ECMP companion of buildRouteTable: for every
// (node, dst) pair it records ALL neighbours one BFS level closer to dst, in
// ascending neighbour order. The single-path table's next hop is always a
// member, so enabling ECMP on a single-path topology changes nothing.
func buildMultiRouteTable(linkKeys [][2]NodeID, srcs []NodeID) map[NodeID]map[NodeID][]NodeID {
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i][0] != linkKeys[j][0] {
			return linkKeys[i][0] < linkKeys[j][0]
		}
		return linkKeys[i][1] < linkKeys[j][1]
	})
	adj := make(map[NodeID][]NodeID)
	for _, key := range linkKeys {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	multi := make(map[NodeID]map[NodeID][]NodeID, len(srcs))
	for _, src := range srcs {
		// BFS from src records hop distances; any neighbour one level closer
		// is an equal-cost next hop toward src.
		dist := map[NodeID]int{src: 0}
		order := []NodeID{src}
		queue := []NodeID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; !seen {
					dist[nb] = dist[cur] + 1
					order = append(order, nb)
					queue = append(queue, nb)
				}
			}
		}
		for _, node := range order {
			if node == src {
				continue
			}
			var hops []NodeID
			for _, nb := range adj[node] {
				if d, ok := dist[nb]; ok && d == dist[node]-1 {
					hops = append(hops, nb)
				}
			}
			if multi[node] == nil {
				multi[node] = make(map[NodeID][]NodeID)
			}
			multi[node][src] = hops
		}
	}
	return multi
}
