// Package dataplane implements the PMNet device: a programmable data plane
// (deployable as a ToR switch or a bump-in-the-wire NIC) augmented with
// persistent memory that logs in-flight update requests and acknowledges
// clients with sub-RTT latency (§IV of the paper).
//
// The device realizes the paper's three-stage match-action pipeline
// (Figure 8): ingress classification by UDP port and Type field, a PM-access
// stage operating on the hash-indexed request log through SRAM log queues,
// and an egress stage that forwards packets and generates PMNet-ACKs.
package dataplane

import (
	"pmnet/internal/netsim"
	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// Config parameterizes a PMNet device.
type Config struct {
	// PipelineLatency is the MAT pipeline traversal time applied to every
	// forwarded packet (the FPGA adds sub-microsecond forwarding latency).
	PipelineLatency sim.Time
	// LogBytes sizes the PM request log. The bandwidth-delay product of the
	// network bounds what is ever needed (Equation 1: ≈5 Mbit at 10 Gbps).
	LogBytes int
	// SlotBytes is the fixed log slot size; must hold an MTU-sized packet.
	SlotBytes int
	// QueueBytes sizes the SRAM log queues decoupling the pipeline from PM
	// (§V-A provisions 4 KB).
	QueueBytes int
	// CacheEntries enables the integrated read cache when positive (§IV-D).
	CacheEntries int
	// EntryTTL is the repair timeout: a log entry still live after this
	// long is resent to its server (the server's SeqNum dedupe answers
	// with a make-up ACK that reclaims the slot, §IV-E1). This covers lost
	// forwarded copies AND lost server-ACKs without waiting for a full
	// recovery poll. 0 = 5 ms; negative disables.
	EntryTTL sim.Time
	// ResendLimit caps TTL resends per entry (0 = 5).
	ResendLimit int
	// PM overrides the PM device model; zero value uses the paper-calibrated
	// defaults with LogBytes capacity.
	PM pmem.Config
}

// DefaultConfig returns the paper's device configuration.
//
// LogBytes is sized well above the Equation-1 BDP (~640 KB at 10 Gbps):
// entries stay live until the server's ACK retires them, so under server
// load the live set tracks the server queue, and a small table would bleed
// throughput to hash collisions. The paper's board carries 2 GB; 32 MB
// (16 Ki slots) keeps the collision rate negligible at saturation.
func DefaultConfig() Config {
	return Config{
		PipelineLatency: 500 * sim.Nanosecond,
		LogBytes:        32 << 20,
		SlotBytes:       2048, // one MTU packet + metadata
		QueueBytes:      4096, // §V-A
	}
}

// Stats aggregates device activity.
type Stats struct {
	Log             LogStats
	Cache           CacheStats
	AcksSent        uint64 // PMNet-ACKs generated
	Forwarded       uint64 // packets forwarded by the egress stage
	RetransAnswered uint64 // Retrans served from the log
	RecoveryResends uint64 // logged requests replayed to a recovering server
	TTLResends      uint64 // repair resends of entries live past EntryTTL
	CacheResponses  uint64 // reads served by the cache
}

// Device is a PMNet switch/NIC attached to the simulated network.
type Device struct {
	id    netsim.NodeID
	net   *netsim.Network
	eng   *sim.Engine
	cfg   Config
	pm    *pmem.Device
	queue *pmem.Queue
	log   *LogTable
	cache *Cache

	stats  Stats
	tracer *trace.Tracer // picked up from the network at New; nil = off
	down   bool
	upds   []*updateRec // recycled logged-update records (per-device)
	args   [][]byte     // decode scratch for the read cache's key extraction

	egressFn func(*netsim.Packet) // what a packet clearing the pipeline does; bound once
}

// updateRec is one pooled logged update, from handleUpdate until its repair
// timer fires for the last time: what the PMNet-ACK needs once the entry is
// durable, and what the TTL check needs EntryTTL later. The record waits for
// one thing at a time — the PM write, then the timer — so one callback,
// bound once at allocation, serves both (durable says which). The repair
// timer is the record's own wheel node (tm): a standing timer takes no
// pooled node beside the record that already holds its state. A record whose
// persist never comes (the write lost a race with the server-ACK, or the
// queue lost power) is not returned: the pool refills on a miss.
type updateRec struct {
	tm               sim.Timer
	d                *Device
	hdr              protocol.Header
	client           netsim.NodeID
	srcPort, dstPort uint16
	durable          bool   // the entry is persistent: fn is now the repair timer
	fn               func() // bound once: onPersist(u), then onEntryTTL(u)
}

func (d *Device) getUpdate() *updateRec {
	if k := len(d.upds) - 1; k >= 0 {
		u := d.upds[k]
		d.upds = d.upds[:k]
		u.durable = false
		return u
	}
	u := &updateRec{d: d}
	u.fn = func() {
		if u.durable {
			u.d.onEntryTTL(u)
		} else {
			u.d.onPersist(u)
		}
	}
	return u
}

func (d *Device) putUpdate(u *updateRec) { d.upds = append(d.upds, u) }

// egress fires when a packet clears the pipeline: transmit — or recycle the
// packet if the device died meanwhile (here, not through Transmit's drop
// path: a packet lost inside a dead device is not a DroppedDead).
func (d *Device) egress(pkt *netsim.Packet) {
	if d.down {
		d.net.FreePacket(pkt)
		return
	}
	d.net.Transmit(pkt, d.id)
}

// New creates a PMNet device, registers it with the network under name, and
// returns it.
func New(net *netsim.Network, id netsim.NodeID, name string, cfg Config) *Device {
	if cfg.PipelineLatency <= 0 {
		cfg.PipelineLatency = 500 * sim.Nanosecond
	}
	if cfg.LogBytes <= 0 {
		cfg.LogBytes = DefaultConfig().LogBytes
	}
	if cfg.SlotBytes <= 0 {
		cfg.SlotBytes = DefaultConfig().SlotBytes
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultConfig().QueueBytes
	}
	if cfg.EntryTTL == 0 {
		cfg.EntryTTL = 5 * sim.Millisecond
	}
	if cfg.ResendLimit <= 0 {
		cfg.ResendLimit = 5
	}
	pmCfg := cfg.PM
	if pmCfg.Capacity == 0 {
		pmCfg = pmem.DefaultConfig(cfg.LogBytes)
	}
	dev := pmem.NewDevice(pmCfg)
	queue := pmem.NewQueue(net.Engine(), dev, cfg.QueueBytes)
	d := &Device{
		id:     id,
		net:    net,
		eng:    net.Engine(),
		cfg:    cfg,
		pm:     dev,
		queue:  queue,
		log:    NewLogTable(dev, queue, cfg.SlotBytes),
		tracer: net.Tracer(),
	}
	d.egressFn = d.egress
	if cfg.CacheEntries > 0 {
		d.cache = NewCache(cfg.CacheEntries)
	}
	net.AddNode(d, name)
	return d
}

// ID implements netsim.Node.
func (d *Device) ID() netsim.NodeID { return d.id }

// Stats returns a copy of the device counters (cache stats included when
// caching is enabled).
func (d *Device) Stats() Stats {
	s := d.stats
	if d.cache != nil {
		s.Cache = d.cache.Stats()
	}
	return s
}

// Log exposes the log table for tests and recovery inspection.
func (d *Device) Log() *LogTable { return d.log }

// Cache exposes the read cache (nil when disabled).
func (d *Device) Cache() *Cache { return d.cache }

// PM exposes the device's persistent memory.
func (d *Device) PM() *pmem.Device { return d.pm }

// Queue exposes the SRAM log queue.
func (d *Device) Queue() *pmem.Queue { return d.queue }

// Fail crashes the device. Its battery-backed PM retains every persisted
// log entry; SRAM contents (log queues, cache and its server-ACK map) are lost.
func (d *Device) Fail() {
	d.down = true
	d.net.SetNodeDown(d.id, true)
	d.queue.PowerFail() // queued log writes are dropped; what reached PM stays
}

// Restart brings the device back: it rescans PM to rebuild the slot index
// (RebuildIndex) and resumes with a cold cache.
func (d *Device) Restart() {
	d.down = false
	d.log.RebuildIndex()
	if d.cache != nil {
		d.cache = NewCache(d.cfg.CacheEntries)
	}
	d.net.SetNodeDown(d.id, false)
}

// Down reports whether the device is failed.
func (d *Device) Down() bool { return d.down }

// forward sends pkt one hop toward its destination after the pipeline
// latency.
func (d *Device) forward(pkt *netsim.Packet) {
	d.stats.Forwarded++
	d.send(pkt)
}

// send puts a packet — forwarded or device-generated — through the pipeline:
// it waits out the pipeline latency, then egresses.
func (d *Device) send(pkt *netsim.Packet) {
	pkt.After(d.eng, d.cfg.PipelineLatency, d.egressFn)
}

// sendNew builds a device-originated PMNet packet (ACK, cache response,
// regenerated request) on a pooled allocation and sends it.
func (d *Device) sendNew(to netsim.NodeID, srcPort, dstPort uint16, msg protocol.Message) {
	pkt := d.net.AllocPacket()
	pkt.ID = d.net.NewPacketID()
	pkt.From = d.id
	pkt.To = to
	pkt.SrcPort = srcPort
	pkt.DstPort = dstPort
	pkt.PMNet = true
	pkt.Msg = msg
	d.send(pkt)
}

// HandlePacket implements the ingress stage (Figure 8): classify by port and
// Type, then dispatch to the PM-access and egress stages.
func (d *Device) HandlePacket(pkt *netsim.Packet) {
	if d.down {
		d.net.FreePacket(pkt)
		return
	}
	// PMNet traffic is identified by the reserved UDP port range (§IV-A2).
	// Server-bound packets carry it as the destination port; packets
	// flowing back to a client (server-ACK, read responses, Retrans) carry
	// it as the source port.
	if !pkt.PMNet || !(protocol.IsPMNetPort(pkt.DstPort) || protocol.IsPMNetPort(pkt.SrcPort)) {
		// Non-PMNet traffic: PMNet is still a regular network device.
		if pkt.To != d.id {
			d.forward(pkt)
			return
		}
		d.net.FreePacket(pkt)
		return
	}
	switch pkt.Msg.Hdr.Type {
	case protocol.TypeUpdateReq:
		d.handleUpdate(pkt)
	case protocol.TypeBypassReq:
		d.handleBypass(pkt)
	case protocol.TypeServerACK:
		d.handleServerAck(pkt)
	case protocol.TypeRetrans:
		d.handleRetrans(pkt)
	case protocol.TypeRecoverReq:
		if pkt.To == d.id {
			d.startRecovery(pkt.From)
			d.net.FreePacket(pkt)
		} else {
			d.forward(pkt)
		}
	case protocol.TypeReadResp:
		d.handleReadResp(pkt)
	default:
		// PMNet-ACK from another PMNet, cache responses, anything else:
		// forward along the path (§IV-B1).
		if pkt.To != d.id {
			d.forward(pkt)
			return
		}
		d.net.FreePacket(pkt)
	}
}

// cacheKeyValue extracts the (key, value) of a cacheable single-fragment
// KV update, or ok=false. Both alias the payload.
func (d *Device) cacheKeyValue(msg protocol.Message) (key, value []byte, ok bool) {
	if msg.Hdr.FragTotal > 1 {
		return nil, nil, false
	}
	req, err := protocol.DecodeRequestInto(msg.Payload, &d.args)
	if err != nil || req.Op != protocol.OpPut || len(req.Args) < 2 {
		return nil, nil, false
	}
	return req.Args[0], req.Args[1], true
}

// handleUpdate logs the packet, forwards it to the server, and ACKs the
// client once the log entry is persistent (Figure 3, steps 2–4).
func (d *Device) handleUpdate(pkt *netsim.Packet) {
	if d.tracer != nil {
		d.tracer.Emit(trace.EvPipeline, uint64(d.id), pkt.ID,
			trace.SpanID(pkt.Msg.Hdr.SessionID, pkt.Msg.Hdr.SeqNum))
	}
	// Egress: the update always continues to the server immediately; the PM
	// write proceeds in parallel ("While the request is being written to PM,
	// PMNet forwards it to the destination server").
	d.forward(pkt)

	msg := pkt.Msg
	u := d.getUpdate()
	u.hdr = msg.Hdr
	u.client = pkt.From
	u.srcPort, u.dstPort = pkt.SrcPort, pkt.DstPort
	logged := d.log.Insert(msg, int(pkt.To), &d.stats.Log, u.fn) == insertAccepted
	if !logged {
		// Collision / queue-full / oversize: the packet was forwarded but not
		// logged and the client gets no early ACK (§IV-B1). It will complete on
		// the server's ACK instead.
		d.putUpdate(u)
	}
	if d.cache != nil {
		d.cacheUpdate(msg, logged)
	}
}

// cacheUpdate applies the read cache's transitions for an update-req. A
// logged single-fragment PUT becomes its key's Pending value (Figure 11).
// Every other update whose key can be read — a PUT the log turned away, a
// DELETE, the first fragment of a larger PUT — reaches the server too, so it
// must at least stop the key from serving what the cache holds.
func (d *Device) cacheUpdate(msg protocol.Message, logged bool) {
	if logged {
		if key, value, ok := d.cacheKeyValue(msg); ok {
			d.cache.onLoggedUpdate(msg.Hdr.HashVal, key, value)
			return
		}
	}
	if msg.Hdr.FragIdx != 0 {
		return
	}
	if key, ok := protocol.UpdateKey(msg.Payload); ok {
		d.cache.supersede(key)
	}
}

// onPersist runs when a logged update is durable: arm its repair timer and
// generate the PMNet-ACK (egress step 6').
func (d *Device) onPersist(u *updateRec) {
	u.durable = true
	if d.cfg.EntryTTL >= 0 {
		u.tm.After(d.eng, d.cfg.EntryTTL, u.fn)
	}
	if d.tracer != nil {
		span := trace.SpanID(u.hdr.SessionID, u.hdr.SeqNum)
		d.tracer.Emit(trace.EvPersist, uint64(d.id), uint64(u.hdr.HashVal), span)
		d.tracer.Emit(trace.EvPMNetAck, uint64(d.id), 0, span)
		d.emitGauges()
	}
	// The ACK is the logged request's header retyped: HashVal leaves Type
	// out, so the request's hash is already the ACK's.
	ack := u.hdr
	ack.Type = protocol.TypePMNetACK
	d.stats.AcksSent++
	d.sendNew(u.client, u.dstPort, u.srcPort, protocol.Message{Hdr: ack})
	if d.cfg.EntryTTL < 0 {
		d.putUpdate(u) // no repair timer will hand it back
	}
}

// handleBypass forwards reads and synchronization requests; with caching
// enabled, GET requests may be served from the cache (Figure 10).
func (d *Device) handleBypass(pkt *netsim.Packet) {
	if d.cache != nil && pkt.Msg.Hdr.FragTotal <= 1 {
		if req, err := protocol.DecodeRequestInto(pkt.Msg.Payload, &d.args); err == nil && req.Op == protocol.OpGet && len(req.Args) >= 1 {
			if e := d.cache.lookup(req.Args[0]); e != nil {
				hdr := protocol.Header{
					Type:      protocol.TypeCacheResp,
					SessionID: pkt.Msg.Hdr.SessionID,
					SeqNum:    pkt.Msg.Hdr.SeqNum,
					FragTotal: 1,
				}
				hdr.Seal()
				d.stats.CacheResponses++
				d.sendNew(pkt.From, pkt.DstPort, pkt.SrcPort,
					protocol.Message{Hdr: hdr, Payload: e.response()})
				d.net.FreePacket(pkt)
				return // served: drop the request
			}
		}
	}
	d.forward(pkt)
}

// handleServerAck reclaims the log entry for the acknowledged request and
// forwards the ACK toward the client so upstream PMNets reclaim too
// (Figure 3 step 5; §IV-B1).
func (d *Device) handleServerAck(pkt *netsim.Packet) {
	hash := pkt.Msg.Hdr.HashVal
	d.log.Invalidate(hash, &d.stats.Log)
	if d.tracer != nil {
		d.emitGauges()
	}
	if d.cache != nil {
		d.cache.onServerAck(hash)
	}
	if pkt.To != d.id {
		d.forward(pkt)
		return
	}
	d.net.FreePacket(pkt)
}

// handleRetrans answers a server's retransmission request from the log when
// possible, otherwise passes it to the client (§IV-B1).
func (d *Device) handleRetrans(pkt *netsim.Packet) {
	server := pkt.From
	srcPort, dstPort := pkt.SrcPort, pkt.DstPort
	served := d.log.Lookup(pkt.Msg.Hdr.HashVal, &d.stats.Log, func(logged protocol.Message) {
		d.stats.RetransAnswered++
		d.sendNew(server, dstPort, srcPort, logged)
	})
	if !served && pkt.To != d.id {
		d.forward(pkt) // let the client retransmit
		return
	}
	d.net.FreePacket(pkt) // served (or addressed to us): the request ends here
}

// handleReadResp lets a passing server read response warm the cache
// (Figure 10 step 5), then forwards it.
func (d *Device) handleReadResp(pkt *netsim.Packet) {
	if d.cache != nil && pkt.Msg.Hdr.FragTotal <= 1 {
		if resp, err := protocol.DecodeResponseInto(pkt.Msg.Payload, &d.args); err == nil &&
			resp.Status == protocol.StatusOK && len(resp.Args) >= 2 {
			d.cache.onReadResponse(resp.Args[0], resp.Args[1], pkt.Msg.Payload)
		}
	}
	if pkt.To != d.id {
		d.forward(pkt)
		return
	}
	d.net.FreePacket(pkt)
}

// emitGauges samples the device's occupancy series — log-table live entries —
// at points where it just changed. The read is O(1) (kept incrementally) so
// this is safe on the per-packet path.
func (d *Device) emitGauges() {
	d.tracer.Emit(trace.GaugeLogLive, uint64(d.id), uint64(d.log.LiveEntries()), 0)
}

// onEntryTTL is the repair timer of a persisted entry: if the entry is still
// live when it fires, the forwarded copy or its server-ACK was lost — resend
// the logged request; the server either applies it (lost forward) or answers
// with a make-up server-ACK (lost ACK), reclaiming the slot either way. The
// timer then re-arms; once it finds the entry gone it recycles the record.
func (d *Device) onEntryTTL(u *updateRec) {
	idx := d.log.slotFor(u.hdr.HashVal)
	s := &d.log.slots[idx]
	if d.down || s.state != slotValid || s.hash != u.hdr.HashVal || // reclaimed (or replaced) in the meantime
		s.resends >= d.cfg.ResendLimit { // give up; the recovery poll remains the backstop
		d.putUpdate(u)
		return
	}
	s.resends++
	dst := netsim.NodeID(s.dst)
	served := d.log.ReadSlot(idx, func(msg protocol.Message, ok bool) {
		if !ok {
			return // reclaimed while the read was queued
		}
		d.stats.TTLResends++
		d.sendNew(dst, 0, protocol.PortMin, msg)
	})
	_ = served // queue momentarily full: the rescheduled timer retries
	u.tm.After(d.eng, d.cfg.EntryTTL, u.fn)
}

// startRecovery replays every logged request destined for the recovering
// server, one PM read at a time so the read queue never overflows (§IV-E1).
// The server orders the replayed requests by SeqNum and drops duplicates;
// entries logged for other servers in the rack are left alone.
func (d *Device) startRecovery(server netsim.NodeID) {
	slots := d.log.ValidSlotsFor(int(server))
	var next func(i int)
	next = func(i int) {
		if d.down || i >= len(slots) {
			return
		}
		ok := d.log.ReadSlot(slots[i], func(msg protocol.Message, valid bool) {
			if valid {
				d.stats.RecoveryResends++
				d.sendNew(server, 0, protocol.PortMin, msg)
			}
			next(i + 1)
		})
		if !ok {
			// Read queue momentarily full (or the slot was reclaimed by a
			// racing server-ACK): skip reclaimed slots, retry full queues.
			if d.log.slots[slots[i]].state != slotValid {
				next(i + 1)
				return
			}
			d.eng.After(1*sim.Microsecond, func() { next(i) })
		}
	}
	next(0)
}
