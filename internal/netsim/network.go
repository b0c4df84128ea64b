package netsim

import (
	"fmt"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	PropDelay  sim.Time // propagation latency (wire + PHY)
	Bandwidth  float64  // bits per second; 0 means infinite (no serialization)
	QueueBytes int      // egress queue capacity; 0 means unbounded
	LossRate   float64  // random drop probability in [0,1)

	// Impair layers the deterministic netem-style impairment models
	// (Gilbert–Elliott burst loss, jitter, reordering, duplication, rate
	// throttling — see impair.go) onto this direction. The zero value is
	// free: no per-link RNG is forked and Transmit takes its historical path.
	Impair Impairments
}

// Validate rejects out-of-range link parameters. Connect panics on a config
// that fails it, so a silently black-holed link (LossRate ≥ 1 consumed a
// draw per packet and dropped everything) is a loud build-time error now.
func (cfg LinkConfig) Validate() error {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return fmt.Errorf("netsim: LossRate %v outside [0,1)", cfg.LossRate)
	}
	return cfg.Impair.Validate()
}

// DefaultLink returns the testbed's 10 GbE link model: ~0.6 µs propagation
// (intra-rack DAC cable + PHY/MAC) and a 512 KB egress buffer (a typical
// shallow ToR per-port share).
func DefaultLink() LinkConfig {
	return LinkConfig{
		PropDelay:  600 * sim.Nanosecond,
		Bandwidth:  10e9,
		QueueBytes: 512 << 10,
	}
}

type link struct {
	cfg      LinkConfig
	from, to NodeID   // endpoints
	busyAt   sim.Time // when the transmitter frees up
	queued   int      // bytes awaiting/under serialization
	dropped  uint64   // drop-tail losses only (LinkDrops)
	sent     uint64
	imp      *linkImpair // nil unless cfg.Impair is set
	// x is the cross-partition handoff queue when `to` lives in another
	// fabric partition than `from`; nil for every other link.
	x *xqueue
}

// Stats aggregates network-wide counters.
type Stats struct {
	Delivered    uint64
	DroppedFull  uint64 // drop-tail queue overflow
	DroppedRand  uint64 // random loss
	DroppedDead  uint64 // destination or next hop unreachable/failed
	DroppedBurst uint64 // impairment-model (Gilbert–Elliott) loss
	Duplicated   uint64 // impairment-model duplications
}

// Network owns the topology, routing and packet delivery.
// It is single-threaded on the virtual clock.
//
// Forwarding reads one dense table (routes.go) — a node's record, then the
// next-hop port toward the destination, both by slice index. A fabric's
// partitions share the table Fabric.Freeze built; a standalone Network wired
// with Connect builds its own at first traffic and drops it whenever AddNode,
// Connect or SetECMP change the topology, so the next packet rebuilds it.
//
// Packet ownership: packets minted with AllocPacket are owned by whoever
// holds them and recycled with FreePacket when their journey ends — the
// network frees on every drop path, hosts free after the receive callback
// returns (so applications must not retain a *Packet past the callback, nor
// its bytes: Raw, and Msg.Payload with it, is the packet's own buffer and is
// reused by its next life), and devices free packets they sink. Packets
// built with &Packet{} bypass the pool entirely.
// A holder that must wait — a wire, a switch, a stack, a pipeline, a CPU —
// hands the packet to its own event with Packet.At and names who takes it
// next; until that fires the packet has no other owner (a second At or a
// FreePacket panics), and there is no per-hop record beside it.
type Network struct {
	eng   *sim.Engine
	rand  *sim.Rand
	names map[NodeID]string
	// The topology as wired, off the packet path: the nodes added here
	// (released by Fabric.Freeze — a frozen partition's records live in the
	// shared table) and the directed links whose source is here, both in call
	// order. They are what the table is built from, and wired also answers
	// LinkQueueBytes/LinkDrops.
	own    []nodeRec
	wired  []*link
	ecmp   bool      // flow-hash over equal-cost paths
	fwd    *fwdTable // nil until built (and after a standalone topology change)
	idSeq  uint64    // packet-id counter (partition-tagged inside a fabric)
	stats  Stats
	tracer *trace.Tracer // nil = tracing off (the common, zero-cost case)

	// Fabric membership (nil/zero on a standalone Network built with New
	// and wired with Connect). pidx is this partition's index; par is the
	// current epoch's write parity (set by the fabric's Begin hook; starts at
	// 1 so setup-time pushes land where the first epoch reads); ret[par][p]
	// collects packets freed here during the current epoch whose home pool is
	// partition p, reclaimed by p at the next epoch. A link whose far end
	// lives in another partition carries its handoff queue itself (link.x).
	fab   *Fabric
	pidx  int32
	par   uint32
	ret   [2][][]*Packet
	xlive []*xqueue // drainInbound scratch (non-empty inbound queues)

	// Per-network free lists (single-threaded on the virtual clock, so no
	// sync.Pool — see DESIGN.md "Hot path & pooling"). txs holds the one
	// event record the packet cannot be — the packet is already on its way
	// to arrive when serialization ends — with its wheel node and its
	// callback bound once at allocation, so a steady-state Transmit
	// schedules no new closures and takes no pooled node.
	pkts []*Packet
	txs  []*txEnd

	// What a packet waiting on this network does next (Packet.At), bound once.
	arriveFn  func(*Packet)
	delayedFn func(*Packet)
}

// txEnd is a pooled "serialization finished" event record.
type txEnd struct {
	tm   sim.Timer
	n    *Network
	l    *link
	size int
	fn   func()
}

// New creates an empty network on eng. rand drives random loss; pass any
// seeded generator.
func New(eng *sim.Engine, rand *sim.Rand) *Network {
	n := &Network{eng: eng, rand: rand, names: make(map[NodeID]string)}
	n.arriveFn, n.delayedFn = n.arrive, n.delayed
	return n
}

// Engine returns the virtual clock driving this network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Stats returns a copy of the delivery counters.
func (n *Network) Stats() Stats { return n.stats }

// SetTracer attaches the observability tracer. Call before traffic starts;
// nil (the default) disables tracing with no per-packet cost beyond a
// predictable branch.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off). Layers built
// on the network (hosts, devices, clients, servers) pick their tracer up
// from here so one testbed wire-up covers every layer.
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// AddNode attaches a node under the given name. Adding two nodes with the
// same ID is a topology bug and panics.
func (n *Network) AddNode(node Node, name string) {
	id := node.ID()
	if n.fab != nil {
		n.fab.addOwner(id, n.pidx, name)
	} else if _, dup := n.names[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node id %d (%s)", id, name))
	}
	n.own = append(n.own, nodeRec{id: id, node: node, net: n})
	n.names[id] = name
	n.fwd = nil
}

// Name returns the registered name of a node.
func (n *Network) Name(id NodeID) string {
	if s, ok := n.names[id]; ok {
		return s
	}
	return fmt.Sprintf("node-%d", id)
}

// Connect creates a bidirectional link between a and b with the same config
// in both directions. Both nodes must already be added.
func (n *Network) Connect(a, b NodeID, cfg LinkConfig) {
	n.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym creates a bidirectional link with direction-specific configs:
// ab governs a→b, ba governs b→a. Asymmetric impairment (loss on the
// ACK-carrying direction only) and asymmetric capacity both need it.
func (n *Network) ConnectAsym(a, b NodeID, ab, ba LinkConfig) {
	if n.fab != nil {
		panic("netsim: partition networks are wired through Fabric.Connect")
	}
	if _, ok := n.names[a]; !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", a))
	}
	if _, ok := n.names[b]; !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", b))
	}
	n.wired = append(n.wired, n.newLink(a, b, ab), n.newLink(b, a, ba))
	n.fwd = nil // invalidate; rebuilt lazily
}

// newLink builds one directed link, validating its config and forking the
// impairment RNG (from this network's stream — the SOURCE partition's inside
// a fabric) only when impairments are configured, so clean links leave the
// historical draw sequence untouched.
func (n *Network) newLink(from, to NodeID, cfg LinkConfig) *link {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: connect %d->%d: %v", from, to, err))
	}
	l := &link{cfg: cfg, from: from, to: to}
	if cfg.Impair.Enabled() {
		l.imp = newLinkImpair(cfg.Impair, n.rand.Fork())
	}
	return l
}

// SetECMP enables flow-hashed equal-cost multipath forwarding: where the
// route table finds several shortest paths, each flow (From, To, ports) is
// pinned by hash to one of them — in-order within a flow, spread across the
// fabric between flows, with naturally asymmetric request/ACK routes (the
// reverse flow hashes independently). Call before traffic flows; single-path
// topologies are unaffected. Partitioned networks get this from
// Fabric.SetECMP instead.
func (n *Network) SetECMP(on bool) {
	if n.fab != nil {
		panic("netsim: partition networks get ECMP from Fabric.SetECMP")
	}
	n.ecmp = on
	n.fwd = nil
}

// table returns the forwarding table, building a standalone network's on
// first use. A partition's is installed by Fabric.Freeze: building one from
// the partition's own links would route within a fragment of the topology.
func (n *Network) table() *fwdTable {
	if n.fwd == nil {
		if n.fab != nil {
			panic("netsim: fabric not frozen before traffic")
		}
		n.fwd = buildFwdTable(n.own, n.wired, n.ecmp)
	}
	return n.fwd
}

// SetNodeDown marks a node failed (true) or restored (false). Failed nodes
// silently drop every packet addressed to or traversing them.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	for i := range n.own {
		if n.own[i].id == id {
			n.own[i].down = down // survives a rebuild of the table
			break
		}
	}
	if t := n.fwd; t != nil {
		if i := t.index(id); i >= 0 && t.recs[i].net == n {
			t.recs[i].down = down
		}
	}
}

// NewPacketID mints a unique packet identity. Inside a fabric the id carries
// the partition index in its high bits over a per-partition counter: ids stay
// globally unique without a shared counter, and — because the minting
// partition and its local mint order are pure functions of the topology — the
// id of any given packet is identical in every shard configuration (packet
// ids feed the trace, whose bytes are compared across -shards values).
func (n *Network) NewPacketID() uint64 {
	n.idSeq++
	if n.fab != nil {
		return uint64(n.pidx+1)<<partIDShift | n.idSeq
	}
	return n.idSeq
}

// partIDShift positions the partition tag above any realistic per-partition
// packet count (2^48 packets).
const partIDShift = 48

// AllocPacket returns a zeroed pool-owned packet (its Raw buffer keeps its
// capacity across recycles). Release it with FreePacket when its journey
// ends; the network's drop paths and host delivery do so automatically.
func (n *Network) AllocPacket() *Packet {
	if k := len(n.pkts) - 1; k >= 0 {
		p := n.pkts[k]
		n.pkts = n.pkts[:k]
		p.pool = pkLive
		return p
	}
	return &Packet{pool: pkLive, home: n.pidx}
}

// FreePacket recycles a pool-owned packet. Unpooled packets (built with
// &Packet{}) are ignored; freeing the same packet twice, or one that is
// waiting (Packet.At), panics — either means two owners. The packet keeps its
// bound wake and its wheel node, so its next life waits without allocating
// and its timer's generation never restarts. A packet whose journey ends in
// a foreign partition is queued for return to its home pool at the next
// epoch barrier rather than adopted locally, keeping every pool balanced (and
// therefore zero-alloc) under asymmetric cross-partition traffic.
func (n *Network) FreePacket(p *Packet) {
	if p.then != nil {
		panic("netsim: freeing a waiting packet")
	}
	switch p.pool {
	case pkUnpooled:
		return
	case pkFree:
		panic("netsim: packet double free")
	}
	raceflag.Poison(p.Raw)
	raw := p.Raw[:0]
	home := p.home
	*p = Packet{Raw: raw, pool: pkFree, home: home, tm: p.tm, wake: p.wake}
	if n.fab != nil && home != n.pidx {
		n.ret[n.par][home] = append(n.ret[n.par][home], p)
		return
	}
	n.pkts = append(n.pkts, p)
}

// PooledPackets reports how many recycled packets wait in the free list: a
// test's view of whether a packet that died off the wire came back.
func (n *Network) PooledPackets() int { return len(n.pkts) }

func (n *Network) getTxEnd(l *link, size int) *txEnd {
	var t *txEnd
	if k := len(n.txs) - 1; k >= 0 {
		t = n.txs[k]
		n.txs = n.txs[:k]
	} else {
		t = &txEnd{n: n}
		t.fn = func() { t.n.finishTx(t) }
	}
	t.l = l
	t.size = size
	return t
}

func (n *Network) finishTx(t *txEnd) {
	t.l.queued -= t.size
	if n.tracer != nil {
		n.tracer.Emit(trace.GaugeLinkQueue, trace.LinkID(uint64(t.l.from), uint64(t.l.to)), uint64(t.l.queued), 0)
	}
	t.l = nil
	n.txs = append(n.txs, t)
}

// arrive ends a link traversal: the packet reaches the node it was bound for.
func (n *Network) arrive(pkt *Packet) {
	pkt.Hops++
	n.deliver(pkt, pkt.hop)
}

// TransmitAfter transmits pkt from `from` once delay has elapsed, without
// allocating a closure — the packet-borne form of
// eng.After(delay, func() { net.Transmit(pkt, from) }).
func (n *Network) TransmitAfter(delay sim.Time, pkt *Packet, from NodeID) {
	pkt.hop = from
	pkt.After(n.eng, delay, n.delayedFn)
}

func (n *Network) delayed(pkt *Packet) { n.Transmit(pkt, pkt.hop) }

// Transmit moves pkt one hop from `from` toward pkt.To, modelling the
// egress link. Delivery invokes the next node's HandlePacket on the virtual
// clock. Lost packets vanish (UDP semantics); recovery is the protocol
// library's job.
func (n *Network) Transmit(pkt *Packet, from NodeID) {
	if pkt.ID == 0 {
		pkt.ID = n.NewPacketID()
	}
	t := n.table()
	i := t.index(from)
	if i < 0 {
		n.dropDead(pkt, from)
		return
	}
	r := &t.recs[i]
	if r.down || r.net != n {
		n.dropDead(pkt, from)
		return
	}
	if from == pkt.To {
		// Local delivery (loopback), e.g. a host talking to itself.
		n.deliver(pkt, from)
		return
	}
	j := t.index(pkt.To)
	if j < 0 {
		n.dropDead(pkt, from)
		return
	}
	// The single-path port normally, a flow-hashed choice among the
	// equal-cost ports under ECMP. The hash covers (switch, From, To, ports),
	// so one flow always takes one path through a given switch — in-order
	// delivery within a flow is preserved (§IV-A4) while distinct flows spread
	// across the fabric.
	port := t.next[i*len(t.recs)+j]
	if port < 0 {
		if port == noRoute {
			n.dropDead(pkt, from)
			return
		}
		group := t.sets[^port:]
		port = group[1+ecmpFlowHash(from, pkt)%uint64(group[0])]
	}
	l := r.ports[port]
	var dup *Packet
	if im := l.imp; im != nil {
		if im.lose() {
			n.stats.DroppedBurst++
			n.dropPacket(pkt, from, trace.DropBurst)
			return
		}
		if im.duplicate() {
			dup = n.dupPacket(pkt)
		}
	}
	n.sendOnLink(l, pkt)
	if dup != nil {
		n.stats.Duplicated++
		n.sendOnLink(l, dup)
	}
}

// sendOnLink runs one packet through the link l: drop-tail admission,
// legacy random loss, (optionally rate-shaped) serialization, then the
// arrival hand-off. The draw order on n.rand is exactly the historical
// Transmit sequence — the impairment models draw only from the link's own
// forked stream — so pre-impairment configurations keep their golden bytes.
func (n *Network) sendOnLink(l *link, pkt *Packet) {
	size := pkt.Size()
	// Drop-tail admission: a full queue drops the tail, but the head packet
	// is always admitted — when nothing is queued or in service the packet
	// occupies the (idle) transmitter, however large, instead of being
	// permanently undeliverable.
	if l.cfg.QueueBytes > 0 && l.queued > 0 && l.queued+size > l.cfg.QueueBytes {
		l.dropped++
		n.stats.DroppedFull++
		n.dropPacket(pkt, l.from, trace.DropFull)
		return
	}
	if l.cfg.LossRate > 0 && n.rand.Float64() < l.cfg.LossRate {
		n.stats.DroppedRand++
		n.dropPacket(pkt, l.from, trace.DropRand)
		return
	}
	var ser sim.Time
	if l.cfg.Bandwidth > 0 {
		ser = sim.Time(float64(size*8) / l.cfg.Bandwidth * 1e9)
	}
	now := n.eng.Now()
	start := l.busyAt
	if start < now {
		start = now
	}
	if im := l.imp; im != nil && im.cfg.RateBps > 0 {
		if at := im.shapeStart(now, size); at > start {
			start = at
		}
	}
	l.queued += size
	l.busyAt = start + ser
	txDone := l.busyAt
	l.sent++
	if n.tracer != nil {
		n.tracer.Emit(trace.GaugeLinkQueue, trace.LinkID(uint64(l.from), uint64(l.to)), uint64(l.queued), 0)
	}
	tx := n.getTxEnd(l, size)
	tx.tm.At(n.eng, txDone, tx.fn)
	arriveAt := txDone + l.cfg.PropDelay
	if im := l.imp; im != nil {
		// Jitter/reorder hold-back is strictly additive, so arriveAt stays ≥
		// now + serialization + PropDelay — the fabric lookahead bound.
		arriveAt += im.extraDelay()
	}
	pkt.hop = l.to
	if l.x != nil {
		// The next hop lives in another partition: hand the packet off
		// through the cross-partition queue (current write parity) instead of
		// scheduling the arrival locally. The receiving partition injects it
		// at the next epoch — always ≥ lookahead away, because arriveAt ≥ now
		// + serialization + PropDelay and the fabric lookahead is the minimum
		// of that sum over cross links.
		l.x.push(n.par, arriveAt, pkt)
		return
	}
	pkt.At(n.eng, arriveAt, n.arriveFn)
}

// dupPacket mints a pool-owned copy of p for link-level duplication, with a
// fresh id and p's bytes copied into the copy's own buffer: the original and
// the duplicate end their journeys (and free, recycling their buffers)
// independently.
func (n *Network) dupPacket(p *Packet) *Packet {
	q := n.AllocPacket()
	raw, pool, home, tm, wake := q.Raw, q.pool, q.home, q.tm, q.wake
	*q = *p
	// p's wake would deliver p, and p's wheel node (if p waits) is linked
	// where p is: q keeps its own and starts out not waiting.
	q.Raw, q.pool, q.home, q.tm, q.wake, q.then = raw, pool, home, tm, wake, nil
	q.copyBytes(p)
	q.ID = n.NewPacketID()
	return q
}

// dropPacket records the drop into the trace (when tracing is on) and
// recycles the packet. The pkt.ID must be read before FreePacket zeroes it,
// which is exactly what makes this a helper rather than two inline lines.
func (n *Network) dropPacket(pkt *Packet, at NodeID, reason uint64) {
	if n.tracer != nil {
		n.tracer.Emit(trace.EvDrop, uint64(at), pkt.ID, reason)
	}
	n.FreePacket(pkt)
}

// dropDead drops a packet that met a failed or unknown node, or has no route.
func (n *Network) dropDead(pkt *Packet, at NodeID) {
	n.stats.DroppedDead++
	n.dropPacket(pkt, at, trace.DropDead)
}

func (n *Network) deliver(pkt *Packet, at NodeID) {
	t := n.table()
	i := t.index(at)
	if i < 0 {
		n.dropDead(pkt, at)
		return
	}
	r := &t.recs[i]
	if r.down || r.net != n {
		n.dropDead(pkt, at)
		return
	}
	if at == pkt.To {
		n.stats.Delivered++
	}
	r.node.HandlePacket(pkt)
}

// findLink returns the a→b link wired here (the latest, had it been wired
// twice), or nil.
func (n *Network) findLink(a, b NodeID) *link {
	for i := len(n.wired) - 1; i >= 0; i-- {
		if l := n.wired[i]; l.from == a && l.to == b {
			return l
		}
	}
	return nil
}

// LinkQueueBytes reports the bytes currently queued on the a→b link; useful
// in tests and for the Fig. 16 saturation experiment.
func (n *Network) LinkQueueBytes(a, b NodeID) int {
	if l := n.findLink(a, b); l != nil {
		return l.queued
	}
	return 0
}

// LinkDrops reports drop-tail losses on the a→b link.
func (n *Network) LinkDrops(a, b NodeID) uint64 {
	if l := n.findLink(a, b); l != nil {
		return l.dropped
	}
	return 0
}
