package netsim

// This file partitions a Network for conservative parallel simulation
// (internal/sim/pdes). A Fabric owns a set of partition Networks — each on
// its own (possibly shared) sim.Engine — plus the global topology spanning
// them: one forwarding table, one name table, and one handoff queue per
// ordered pair of adjacent partitions. The partition structure is a pure
// function of the topology, chosen by the builder (testbed) independently of
// how many engines/shards drive it; that invariance is what makes `-shards 1`
// and `-shards N` produce byte-identical output (DESIGN.md §10.4). One partition
// is a valid fabric — the testbed's default: no link crosses, no handoff
// queue exists, and it is a plain single-engine network.
//
// Cross-partition discipline:
//
//   - A directed link whose endpoints live in different partitions keeps its
//     state (busyAt, queue depth, drops, loss draws) in the SOURCE
//     partition, which models serialization and egress exactly as it does
//     for an internal link — only the arrival event is handed off.
//   - The handoff queue is single-producer (the source partition's worker
//     appends during its epoch) and single-consumer (the destination
//     partition drains it at the next epoch); the queue is double-buffered
//     by epoch parity — during epoch k producers append to side k&1 while
//     the consumer drains side (k-1)&1 — so the single pdes barrier at the
//     end of each epoch is the only happens-before edge needed between the
//     two (DESIGN.md §10.6).
//   - Each parity side publishes the minimum queued arrival time (reset by
//     the producer's Begin, maintained on push); Fabric.PendingOutFunc folds
//     a shard's outbound minimums into the slot it publishes to the runner,
//     so events sitting undrained in a buffer can never be skipped past and
//     the runner's reduce stays O(shards).
//   - The destination injects queued arrivals ordered by
//     (arrival time, source partition index, source emission order) — a key
//     computed from the topology alone, so the injection order cannot
//     depend on worker scheduling or shard count.
//   - Packets are handed off, never shared: ownership moves with the queue
//     entry, and a packet freed away from home is routed back to its home
//     pool at the next barrier (see Network.FreePacket).

import (
	"fmt"
	"math"
	"sort"

	"pmnet/internal/sim"
)

// xnever is the pending-minimum identity: no queued arrival. Its value
// matches the pdes runner's reduction identity, so a shard's pending minimum
// composes with gmin without translation.
const xnever = sim.Time(math.MaxInt64)

// xev is one queued cross-partition arrival; the packet carries the node it
// is bound for.
type xev struct {
	at  sim.Time
	pkt *Packet
}

// xside is one epoch-parity half of a handoff queue: the arrival buffer, the
// minimum queued arrival time (maintained on push, reset by the producer's
// Begin before the parity is written again), and the consumer's drain
// cursor. Padded to a cache line so the producer's writes to one parity
// never false-share with the consumer's drain of the other.
type xside struct {
	buf  []xev
	qmin sim.Time
	pos  int // drain cursor into buf
	_    [24]byte
}

// xqueue carries arrivals from one source partition to one destination
// partition (all cross links between the pair share it), double-buffered by
// epoch parity: during epoch k the source partition's worker appends to
// sides[k&1] while the destination drains sides[(k-1)&1] — sorted stably by
// arrival time, preserving source emission order among ties.
type xqueue struct {
	sides [2]xside
}

func (q *xqueue) push(parity uint32, at sim.Time, pkt *Packet) {
	s := &q.sides[parity]
	s.buf = append(s.buf, xev{at: at, pkt: pkt})
	if at < s.qmin {
		s.qmin = at
	}
}

// Fabric is the partitioned form of a Network. Build it single-threaded:
// NewFabric, AddNode (via the partition Networks), Connect, then Freeze
// before any traffic flows.
type Fabric struct {
	parts     []*Network
	assign    []int // partition -> engine (shard) index
	owner     map[NodeID]int32
	xqs       map[[2]int32]*xqueue // (src part, dst part) -> queue
	xin       [][]*xqueue          // per partition: inbound queues, by src order
	xoutOf    [][]*xqueue          // per partition: outbound queues, by dst order
	lookahead sim.Time
	ecmp      bool
	frozen    bool
}

// NewFabric creates one partition Network per assign entry; partition i runs
// on engines[assign[i]] with its own loss-RNG stream forked from root in
// partition order (so RNG consumption, like everything else, is a function
// of the partition structure, not the shard count).
func NewFabric(engines []*sim.Engine, assign []int, root *sim.Rand) *Fabric {
	if len(assign) == 0 {
		panic("netsim: fabric needs at least one partition")
	}
	f := &Fabric{
		assign: append([]int(nil), assign...),
		owner:  make(map[NodeID]int32),
		xqs:    make(map[[2]int32]*xqueue),
	}
	names := make(map[NodeID]string) // one name table spanning all partitions
	for i, eng := range assign {
		if eng < 0 || eng >= len(engines) {
			panic(fmt.Sprintf("netsim: partition %d assigned to unknown engine %d", i, eng))
		}
		n := New(engines[eng], root.Fork())
		n.fab = f
		n.pidx = int32(i)
		n.names = names
		if len(assign) > 1 {
			// Return slices exist only where a packet can be freed away from
			// home; a lone partition never indexes them.
			n.ret[0] = make([][]*Packet, len(assign))
			n.ret[1] = make([][]*Packet, len(assign))
		}
		// The write parity starts at 1: the first epoch's Begin flips to 0
		// and its drain reads 1, so packets pushed or freed during model
		// setup (before any epoch) land exactly where the first reduce and
		// drain look.
		n.par = 1
		f.parts = append(f.parts, n)
	}
	return f
}

// Parts returns the partition count.
func (f *Fabric) Parts() int { return len(f.parts) }

// Part returns partition i's Network; layers built on it (hosts, devices,
// servers, sessions) land in that partition and on its engine.
func (f *Fabric) Part(i int) *Network { return f.parts[i] }

// Owner returns the partition a node was added to.
func (f *Fabric) Owner(id NodeID) int { return int(f.owner[id]) }

// addOwner records node ownership at AddNode time; the fabric-wide check
// replaces the per-network duplicate check for cross-partition collisions.
func (f *Fabric) addOwner(id NodeID, part int32, name string) {
	if f.frozen {
		panic("netsim: fabric is frozen; topology is immutable")
	}
	if p, dup := f.owner[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node id %d (%s) across partitions %d and %d", id, name, p, part))
	}
	f.owner[id] = part
}

// Connect creates a bidirectional link between a and b with the same config
// in both directions, wiring each direction into its source partition (and
// through a handoff queue when the endpoints live in different partitions).
// Both nodes must already be added.
func (f *Fabric) Connect(a, b NodeID, cfg LinkConfig) {
	f.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym is Connect with direction-specific configs: ab governs a→b,
// ba governs b→a — the fabric form of Network.ConnectAsym.
func (f *Fabric) ConnectAsym(a, b NodeID, ab, ba LinkConfig) {
	if f.frozen {
		panic("netsim: fabric is frozen; topology is immutable")
	}
	f.connectDirected(a, b, ab)
	f.connectDirected(b, a, ba)
}

// SetECMP enables flow-hashed equal-cost multipath forwarding fabric-wide.
// Call before Freeze; the forwarding table built there carries the
// equal-cost member groups beside the single-path ports.
func (f *Fabric) SetECMP(on bool) {
	if f.frozen {
		panic("netsim: fabric is frozen; topology is immutable")
	}
	f.ecmp = on
}

func (f *Fabric) connectDirected(a, b NodeID, cfg LinkConfig) {
	pa, ok := f.owner[a]
	if !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", a))
	}
	pb, ok := f.owner[b]
	if !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", b))
	}
	src := f.parts[pa]
	// The directed link — including any impairment RNG fork — lives in the
	// SOURCE partition, so its draw stream is a function of that partition's
	// build order alone, never of the shard count.
	l := src.newLink(a, b, cfg)
	src.wired = append(src.wired, l)
	if pa == pb {
		return
	}
	// Lookahead: every cross-partition arrival is scheduled at
	// txStart + serialization(size) + PropDelay with size ≥ UDPOverhead,
	// so min(serMin + PropDelay) over cross links bounds it from below.
	if lat := linkLatency(cfg); f.lookahead == 0 || lat < f.lookahead {
		f.lookahead = lat
	}
	qk := [2]int32{pa, pb}
	q := f.xqs[qk]
	if q == nil {
		q = &xqueue{}
		q.sides[0].qmin = xnever
		q.sides[1].qmin = xnever
		f.xqs[qk] = q
	}
	l.x = q
}

// Freeze builds the forwarding table over every partition's nodes and links
// — one fwdTable (routes.go) the partitions share: the id index, the next-hop
// ports and the ECMP groups are read-only from here on, and a node's record
// is read, and its down flag written, only by the partition that owns the
// node — and the inbound queue lists, and settles the lookahead bound: the
// minimum over cross-partition links of propagation delay plus the
// serialization time of a minimum-size datagram, i.e. the least virtual time
// any cross-partition interaction can take. Topology is immutable afterwards.
func (f *Fabric) Freeze() {
	if f.frozen {
		return
	}
	f.frozen = true
	var nodes []nodeRec
	var links []*link
	for _, n := range f.parts {
		nodes = append(nodes, n.own...)
		links = append(links, n.wired...)
	}
	t := buildFwdTable(nodes, links, f.ecmp)
	for _, n := range f.parts {
		n.fwd = t
		n.own = nil // the table's records are the only copy from here on
	}

	if f.lookahead == 0 {
		// No cross-partition links: partitions are mutually independent and
		// any window is conservative.
		f.lookahead = sim.Millisecond
	}
	if f.lookahead < 1 {
		panic("netsim: fabric lookahead collapsed to zero (a cross-partition link has no latency)")
	}

	f.xin = make([][]*xqueue, len(f.parts))
	f.xoutOf = make([][]*xqueue, len(f.parts))
	qkeys := make([][2]int32, 0, len(f.xqs))
	for qk := range f.xqs {
		qkeys = append(qkeys, qk)
	}
	sort.Slice(qkeys, func(i, j int) bool {
		if qkeys[i][1] != qkeys[j][1] {
			return qkeys[i][1] < qkeys[j][1]
		}
		return qkeys[i][0] < qkeys[j][0]
	})
	for _, qk := range qkeys {
		q := f.xqs[qk]
		f.xin[qk[1]] = append(f.xin[qk[1]], q)
		f.xoutOf[qk[0]] = append(f.xoutOf[qk[0]], q)
	}
}

// Lookahead returns the conservative window computed by Freeze.
func (f *Fabric) Lookahead() sim.Time {
	if !f.frozen {
		panic("netsim: fabric not frozen")
	}
	return f.lookahead
}

// BeginFunc returns the pdes Begin hook for one shard: at the start of every
// epoch it flips each owned partition to the epoch's write parity and resets
// that parity's pending minimums on the partition's outbound queues. It must
// run even for shards with nothing to run in the window — a stale minimum would
// wedge the global window (see pdes.Shard.Begin).
func (f *Fabric) BeginFunc(shard int) func(parity uint32) {
	var mine []*Network
	for p, s := range f.assign {
		if s == shard {
			mine = append(mine, f.parts[p])
		}
	}
	return func(parity uint32) {
		for _, n := range mine {
			n.par = parity
			for _, q := range f.xoutOf[n.pidx] {
				q.sides[parity].qmin = xnever
			}
		}
	}
}

// DrainFunc returns the pdes drain hook for one shard: at every epoch it
// reclaims returned packets and injects queued cross-partition arrivals at
// the given (previous-epoch) parity for each partition assigned to that
// shard, in partition order.
func (f *Fabric) DrainFunc(shard int) func(parity uint32) {
	var mine []*Network
	for p, s := range f.assign {
		if s == shard {
			mine = append(mine, f.parts[p])
		}
	}
	return func(parity uint32) {
		for _, n := range mine {
			f.reclaimReturns(n, parity)
			f.drainInbound(n, parity)
		}
	}
}

// PendingOutFunc returns the pdes PendingOut hook for one shard: the minimum
// arrival time queued at the given parity across the shard's outbound
// handoff queues, whichever shard drains them. The runner folds it into the
// shard's published next-event time, so its reduce is O(shards) with no
// global queue scan, and undrained buffered events still bound the epoch
// window. Only the worker driving the shard calls it (at publish), so it
// reads only queue minimums that worker's epoch just wrote. Call after
// Freeze — the queue lists are built there.
func (f *Fabric) PendingOutFunc(shard int) func(parity uint32) sim.Time {
	if !f.frozen {
		panic("netsim: fabric not frozen")
	}
	var out []*xqueue
	for p, s := range f.assign {
		if s == shard {
			out = append(out, f.xoutOf[p]...)
		}
	}
	return func(parity uint32) sim.Time {
		min := xnever
		for _, q := range out {
			if t := q.sides[parity].qmin; t < min {
				min = t
			}
		}
		return min
	}
}

// Quiesce repatriates every cross-partition free still parked in a return
// slice, both parities. The pdes runner calls it single-threaded after its
// workers have joined (SetQuiesce), so the frees of a run's final epoch —
// which no later epoch will reclaim — still make it home before the caller
// inspects pools or the next run warms up.
func (f *Fabric) Quiesce() {
	for _, n := range f.parts {
		f.reclaimReturns(n, 0)
		f.reclaimReturns(n, 1)
	}
}

// reclaimReturns pulls back packets that other partitions freed on this
// partition's behalf during the previous epoch (the given parity). The pdes
// barrier orders the producers' appends before this read; producers are now
// writing the opposite parity and will not touch these slices again until
// this parity is theirs to write.
func (f *Fabric) reclaimReturns(n *Network, parity uint32) {
	me := n.pidx
	for _, peer := range f.parts {
		if peer == n {
			continue
		}
		back := peer.ret[parity][me]
		if len(back) == 0 {
			continue
		}
		n.pkts = append(n.pkts, back...)
		for i := range back {
			back[i] = nil
		}
		peer.ret[parity][me] = back[:0]
	}
}

// drainInbound injects every cross-partition arrival queued at the given
// parity into n's engine, ordered by (arrival time, source partition index,
// source emission order). Each buffer is sorted stably by time first (a
// partition's emissions interleave multiple egress links, so the buffer is
// only near-sorted), then the queues — already in source order from Freeze —
// are cursor-merged. The drained parity's qmin is left stale; its producer
// resets it at Begin before writing the parity again.
func (f *Fabric) drainInbound(n *Network, parity uint32) {
	// Collect the non-empty queues into a per-partition scratch list (kept in
	// source order because f.xin is), so the merge scans only live queues.
	live := n.xlive[:0]
	for _, q := range f.xin[n.pidx] {
		if len(q.sides[parity].buf) == 0 {
			continue
		}
		insertionSortByAt(q.sides[parity].buf)
		live = append(live, q)
	}
	n.xlive = live
	for {
		var best *xside
		for _, q := range live {
			s := &q.sides[parity]
			if s.pos >= len(s.buf) {
				continue
			}
			if best == nil || s.buf[s.pos].at < best.buf[best.pos].at {
				best = s
			}
		}
		if best == nil {
			break
		}
		ev := best.buf[best.pos]
		best.buf[best.pos] = xev{}
		best.pos++
		ev.pkt.At(n.eng, ev.at, n.arriveFn)
	}
	for _, q := range live {
		s := &q.sides[parity]
		s.buf = s.buf[:0]
		s.pos = 0
	}
}

// insertionSortByAt stably sorts a small buffer by arrival time in place —
// no allocation, and ties keep their emission order.
func insertionSortByAt(buf []xev) {
	for i := 1; i < len(buf); i++ {
		e := buf[i]
		j := i - 1
		for j >= 0 && buf[j].at > e.at {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = e
	}
}

// Stats sums delivery counters across partitions.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, n := range f.parts {
		s.Delivered += n.stats.Delivered
		s.DroppedFull += n.stats.DroppedFull
		s.DroppedRand += n.stats.DroppedRand
		s.DroppedDead += n.stats.DroppedDead
		s.DroppedBurst += n.stats.DroppedBurst
		s.Duplicated += n.stats.Duplicated
	}
	return s
}

// LinkQueueBytes reports the a→b egress queue depth wherever the link lives.
func (f *Fabric) LinkQueueBytes(a, b NodeID) int {
	return f.parts[f.owner[a]].LinkQueueBytes(a, b)
}

// LinkDrops reports a→b drop-tail losses wherever the link lives.
func (f *Fabric) LinkDrops(a, b NodeID) uint64 {
	return f.parts[f.owner[a]].LinkDrops(a, b)
}
