package dataplane

// Allocation pins + micro-benchmark for the device's update hop, and the
// pool-reuse edge cases the end-to-end goldens do not reach. A logged update
// rides one pooled updateRec (device) and one pooled insertOp (log table),
// both with callbacks bound at allocation, so steady state allocates nothing.

import (
	"bytes"
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// sinkNode is a network endpoint that hands what reaches it to got, then
// recycles the packet — an endpoint that itself allocates nothing.
type sinkNode struct {
	id  netsim.NodeID
	net *netsim.Network
	got func(pkt *netsim.Packet) // may be nil
}

func (s *sinkNode) ID() netsim.NodeID { return s.id }
func (s *sinkNode) HandlePacket(pkt *netsim.Packet) {
	if s.got != nil {
		s.got(pkt)
	}
	s.net.FreePacket(pkt)
}

// hopRig is client sink — device — server sink; the server answers every
// update with its server-ACK. The device keeps its default 5 ms EntryTTL, so
// draining the clock also fires each entry's (no-op) repair timer.
type hopRig struct {
	eng     *sim.Engine
	net     *netsim.Network
	dev     *Device
	payload []byte
	seq     uint32
	acks    int                      // PMNet-ACKs the client saw
	hits    int                      // cache responses the client saw
	seen    func(pkt *netsim.Packet) // sees each cache response; may be nil
}

func newHopRig() *hopRig { return newHopRigWith(DefaultConfig()) }

func newHopRigWith(cfg Config) *hopRig {
	eng := sim.NewEngine()
	net := netsim.New(eng, sim.NewRand(1))
	rg := &hopRig{eng: eng, net: net,
		payload: protocol.PutReq([]byte("user00000001"), make([]byte, 1000)).Encode()}
	client := &sinkNode{id: clientID, net: net}
	client.got = func(pkt *netsim.Packet) {
		switch pkt.Msg.Hdr.Type {
		case protocol.TypePMNetACK:
			rg.acks++
		case protocol.TypeCacheResp:
			rg.hits++
			if rg.seen != nil {
				rg.seen(pkt)
			}
		}
	}
	net.AddNode(client, "client")
	rg.dev = New(net, devID, "pmnet", cfg)
	server := &sinkNode{id: serverID, net: net}
	server.got = func(pkt *netsim.Packet) {
		h := pkt.Msg.Hdr
		if h.Type != protocol.TypeUpdateReq {
			return
		}
		ack := protocol.Header{Type: protocol.TypeServerACK, SessionID: h.SessionID,
			SeqNum: h.SeqNum, FragIdx: h.FragIdx, FragTotal: h.FragTotal}
		ack.Seal()
		out := net.AllocPacket()
		out.From, out.To = serverID, pkt.From
		out.SrcPort, out.DstPort = pkt.DstPort, pkt.SrcPort
		out.PMNet = true
		out.Msg = protocol.Message{Hdr: ack}
		net.Transmit(out, serverID)
	}
	net.AddNode(server, "server")
	link := netsim.LinkConfig{PropDelay: 1 * sim.Microsecond, Bandwidth: 10e9}
	net.Connect(clientID, devID, link)
	net.Connect(devID, serverID, link)
	return rg
}

// round sends one update through the device and drains the clock: log,
// forward, persist, PMNet-ACK, server-ACK (invalidate, forward), TTL timer.
func (rg *hopRig) round() {
	rg.seq++
	h := protocol.Header{Type: protocol.TypeUpdateReq, SessionID: 1, SeqNum: rg.seq, FragTotal: 1}
	h.Seal()
	pkt := rg.net.AllocPacket()
	pkt.From, pkt.To = clientID, serverID
	pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
	pkt.SetMsg(h, rg.payload)
	rg.net.Transmit(pkt, clientID)
	rg.eng.Run()
}

// TestUpdateHopAllocs pins the device's whole update hop — through persist,
// server-ACK and the TTL timer firing — to zero steady-state allocations.
func TestUpdateHopAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newHopRig()
	rg.round() // warm the pools and the route tables
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("update hop allocated %.1f objects per update, want 0", got)
	}
	st := rg.dev.Stats()
	if rg.acks == 0 || uint64(rg.acks) != st.AcksSent || st.Log.Invalidated != st.Log.Logged {
		t.Fatalf("hop not exercised: %d PMNet-ACKs seen, stats %+v", rg.acks, st)
	}
}

// get sends a pre-encoded GET from the client toward the server and drains
// the clock.
func (rg *hopRig) get(payload []byte) {
	rg.seq++
	h := protocol.Header{Type: protocol.TypeBypassReq, SessionID: 2, SeqNum: rg.seq, FragTotal: 1}
	h.Seal()
	pkt := rg.net.AllocPacket()
	pkt.From, pkt.To = clientID, serverID
	pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
	pkt.SetMsg(h, payload)
	rg.net.Transmit(pkt, clientID)
	rg.eng.Run()
}

// readResp sends a server read response back through the device toward the
// client and drains the clock.
func (rg *hopRig) readResp(payload []byte) {
	rg.seq++
	h := protocol.Header{Type: protocol.TypeReadResp, SessionID: 2, SeqNum: rg.seq, FragTotal: 1}
	h.Seal()
	pkt := rg.net.AllocPacket()
	pkt.From, pkt.To = serverID, clientID
	pkt.SrcPort, pkt.DstPort = protocol.PortMin, 40001
	pkt.SetMsg(h, payload)
	rg.net.Transmit(pkt, serverID)
	rg.eng.Run()
}

// TestReadResponseAllocs pins a GET answered by the device's cache to zero
// allocations: the key is looked up as the bytes in the packet, the request
// decodes into the device's scratch, an update encodes the response a hit
// sends into its entry's own buffer, and a hit copies that into the packet.
// The fill half is also the lifetime check for a fill: each response arrives
// in a pooled packet's own bytes, and the GET after it reuses that packet, so
// a hit sends the filled value only if the entry copied it.
func TestReadResponseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	rg := newHopRigWith(cfg)
	get := protocol.GetReq([]byte("user00000001")).Encode()
	rg.round() // the update leaves user00000001 Persisted in the cache
	rg.get(get)
	if got := testing.AllocsPerRun(100, func() {
		rg.round() // a new value, installed by an update
		rg.get(get)
		rg.get(get)
	}); got != 0 {
		t.Errorf("first and repeat hit on an updated value allocated %.1f objects, want 0", got)
	}
	if st := rg.dev.Stats(); rg.hits == 0 || uint64(rg.hits) != st.CacheResponses || st.Cache.Misses != 0 {
		t.Fatalf("path not exercised: %d cache responses seen, stats %+v", rg.hits, st)
	}

	// Fills: with one entry, each response evicts the other key's value.
	cfg.CacheEntries = 1
	rg = newHopRigWith(cfg)
	var gets, resps [2][]byte
	for i := range gets {
		key := []byte{'k', byte('0' + i)}
		gets[i] = protocol.GetReq(key).Encode()
		resps[i] = protocol.Response{Status: protocol.StatusOK, Args: [][]byte{key, []byte("value")}}.Encode()
	}
	var served []byte
	rg.seen = func(pkt *netsim.Packet) { served = append(served[:0], pkt.Msg.Payload...) }
	i := 0
	fill := func() {
		i++
		rg.readResp(resps[i%2])
		rg.get(gets[i%2])
		if !bytes.Equal(served, resps[i%2]) {
			t.Fatalf("a hit on a filled value sent %x, want the server's response %x", served, resps[i%2])
		}
	}
	fill()
	if got := testing.AllocsPerRun(100, fill); got != 0 {
		t.Errorf("fill and first hit allocated %.1f objects, want 0", got)
	}
	if st := rg.dev.Stats(); st.Cache.Fills < 100 || st.Cache.Evictions < 100 || st.Cache.Misses != 0 {
		t.Fatalf("fills not exercised: stats %+v", st.Cache)
	}
}

// TestCacheSteadyStateAllocs pins every cache operation — the device's
// byte-keyed forms and the string-keyed ones, on resident keys and on new
// keys that replace evicted ones — to zero allocations: a new key is copied
// into the evicted entry's own buffer.
func TestCacheSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	c := NewCache(8)
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte{'k', byte('0' + i)}
		c.OnReadResponse(string(keys[i]), []byte("v"))
	}
	value := []byte("value")
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		k := keys[i%len(keys)]
		i++
		c.onLoggedUpdate(1, k, value) // Persisted → Pending
		if c.lookup(k) == nil {
			t.Fatal("pending entry did not serve")
		}
		c.onLoggedUpdate(2, k, value) // Pending → Stale
		c.onServerAck(1)              // Stale → Invalid
		c.onServerAck(2)
		c.onReadResponse(k, value)
		if v, hit := c.Lookup(string(k)); !hit || !bytes.Equal(v, value) {
			t.Fatal("filled entry did not serve")
		}
		c.OnUpdate(string(k), value)
		c.OnServerAck(string(k))
	}); got != 0 {
		t.Errorf("resident-key operations allocated %.1f objects, want 0", got)
	}
	n := 0
	fresh := make([]byte, 0, 8)
	if got := testing.AllocsPerRun(200, func() {
		n++
		fresh = append(fresh[:0], 'n', byte(n), byte(n>>8))
		c.onReadResponse(fresh, value)
		n++
		fresh = append(fresh[:0], 'n', byte(n), byte(n>>8))
		c.onLoggedUpdate(uint32(n), fresh, value)
		c.onServerAck(uint32(n))
	}); got != 0 {
		t.Errorf("replacing evicted keys allocated %.1f objects, want 0", got)
	}
	if st := c.Stats(); c.Len() != 8 || st.Evictions < 400 {
		t.Fatalf("evictions not exercised: len %d, stats %+v", c.Len(), st)
	}
}

// BenchmarkUpdateHop measures one update's trip through the device.
func BenchmarkUpdateHop(b *testing.B) {
	rg := newHopRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
}

// TestLogInsertAllocs pins LogTable.Insert → persist → Invalidate to zero
// steady-state allocations.
func TestLogInsertAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	tab, eng := newTable(t, 64, 2048, 4096)
	var stats LogStats
	payload := make([]byte, 1000)
	persists := 0
	onPersist := func() { persists++ }
	seq := uint32(0)
	round := func() {
		seq++
		h := protocol.Header{Type: protocol.TypeUpdateReq, SessionID: 1, SeqNum: seq, FragTotal: 1}
		h.Seal()
		tab.Insert(protocol.Message{Hdr: h, Payload: payload}, 0, &stats, onPersist)
		eng.Run()
		tab.Invalidate(h.HashVal, &stats)
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("Insert+persist+Invalidate allocated %.1f objects per entry, want 0", got)
	}
	if persists == 0 || stats.Invalidated != stats.Logged || tab.LiveEntries() != 0 {
		t.Fatalf("entries not cycled: %d persists, stats %+v", persists, stats)
	}
}

// TestRelogOverLiveSlotPooledOps: a client retransmission re-logs over its
// own first PM write while that write is still queued, so one slot has two
// insert ops in flight and Insert "completes twice". Each pooled op must
// carry its own callback, the slot must count once, and the recycled ops
// must serve the next, unrelated insert.
func TestRelogOverLiveSlotPooledOps(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmSlowConfig(16 * 2048))
	tab := NewLogTable(dev, pmem.NewQueue(eng, dev, 4096), 2048)
	var stats LogStats
	msg := mkMsg(1, 1, "dup")
	var fired []string
	if res := tab.Insert(msg, 0, &stats, func() { fired = append(fired, "first") }); res != insertAccepted {
		t.Fatalf("first insert: %d", res)
	}
	if res := tab.Insert(msg, 0, &stats, func() { fired = append(fired, "second") }); res != insertAccepted {
		t.Fatalf("re-log over the in-flight write: %d", res)
	}
	eng.Run()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("persist callbacks %v, want [first second]", fired)
	}
	if tab.LiveEntries() != 1 || tab.scanLiveEntries() != 1 {
		t.Fatalf("live=%d scan=%d, want 1", tab.LiveEntries(), tab.scanLiveEntries())
	}
	if len(tab.ops) != 2 {
		t.Fatalf("%d insert ops back in the pool, want 2", len(tab.ops))
	}
	other := mkMsg(1, 2, "next")
	if tab.slotFor(other.Hdr.HashVal) == tab.slotFor(msg.Hdr.HashVal) {
		t.Fatal("test messages collide; pick another seq")
	}
	tab.Insert(other, 0, &stats, func() { fired = append(fired, "third") })
	eng.Run()
	if len(fired) != 3 || fired[2] != "third" || tab.LiveEntries() != 2 {
		t.Fatalf("recycled op misfired: %v, live=%d", fired, tab.LiveEntries())
	}
}

// TestPowerFailWithParkedUpdateRecords: updates whose PM writes are parked in
// the SRAM queue when the device loses power never persist, so their pooled
// records never come back. The device must not acknowledge them, and the
// updates it logs after restarting must be acknowledged as themselves — not
// with a lost record's header.
func TestPowerFailWithParkedUpdateRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntryTTL = 200 * sim.Microsecond
	rg := newDevRig(t, cfg)
	rg.sendUpdate(1, 1, "a", "1")
	rg.sendUpdate(1, 2, "b", "2")
	// Both updates are inside the device, their writes not yet retired.
	rg.eng.RunUntil(2*sim.Microsecond + 200*sim.Nanosecond)
	if rg.dev.Queue().InFlight() == 0 {
		t.Fatal("setup: no PM write parked in the queue")
	}
	rg.dev.Fail()
	rg.eng.RunUntil(10 * sim.Microsecond)
	rg.dev.Restart()
	rg.sendUpdate(1, 3, "c", "3")
	rg.sendUpdate(1, 4, "d", "4")
	rg.eng.Run()
	var seqs []uint32
	for _, p := range rg.clientGot[protocol.TypePMNetACK] {
		seqs = append(seqs, p.Msg.Hdr.SeqNum)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("PMNet-ACKs for seqs %v, want [3 4]", seqs)
	}
	if st := rg.dev.Stats(); st.Log.Invalidated != 2 || rg.dev.Log().LiveEntries() != 0 || st.TTLResends != 0 {
		t.Fatalf("after restart: live=%d stats=%+v", rg.dev.Log().LiveEntries(), st)
	}
}
