package main

import (
	"fmt"
	"runtime"
	"time"

	"pmnet"
	"pmnet/internal/arrival"
	"pmnet/internal/client"
	"pmnet/internal/dataplane"
	"pmnet/internal/harness"
	"pmnet/internal/netsim"
	"pmnet/internal/openloop"
	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/server"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/trace"
	"pmnet/internal/workload"
)

// Probes are benchmark-owned loops that time calls into one layer's public
// functions, with inputs shaped like the workload (value size, key
// distribution, op mix). They are not the program's own path: they say what
// a layer's call costs alone, so the attribution can apportion the host time
// the spans cannot see inside sim.run.

// perOp is a probe's reading per operation. events is engine events fired
// per operation (0 when the probe drives no engine).
type perOp struct{ ns, allocs, events float64 }

// self is the probe's time with the engine's own dispatch cost taken out, so
// that the sim layer is not counted again inside every layer that schedules.
func (p perOp) self(scheduleNS float64) float64 {
	return max(p.ns-p.events*scheduleNS, 0)
}

const (
	probeBatch  = 512
	probeRounds = 4
)

// loop is one probe: op, called in batches of probeBatch. eng, when set, is
// the engine op drives, for the events it fires; before, when set, runs
// untimed ahead of each batch; calls is how many layer calls one op makes
// (default 1).
type loop struct {
	eng    *sim.Engine
	before func()
	op     func()
	calls  int

	into     *perOp
	perBatch []float64
	ops      int
	mallocs  uint64
	events   uint64
}

// run times batches for d (at least one).
func (l *loop) run(d time.Duration) {
	var ev0 uint64
	if l.eng != nil {
		ev0 = l.eng.EventsRun()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start, first := time.Now(), true; first || time.Since(start) < d; first = false {
		if l.before != nil {
			l.before()
		}
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			l.op()
		}
		l.perBatch = append(l.perBatch, float64(time.Since(t0))/probeBatch)
		l.ops += probeBatch
	}
	runtime.ReadMemStats(&m1)
	l.mallocs += m1.Mallocs - m0.Mallocs
	if l.eng != nil {
		l.events += l.eng.EventsRun() - ev0
	}
}

// result is the median batch's time per call, with allocations and engine
// events per call over all batches.
func (l *loop) result() perOp {
	each := float64(max(l.calls, 1))
	calls := float64(l.ops) * each
	return perOp{ns: median(l.perBatch) / each, allocs: float64(l.mallocs) / calls, events: float64(l.events) / calls}
}

// runLoops warms every loop, then gives each budget in probeRounds slices,
// taking turns: on a shared host a slow stretch lasts seconds, and taking
// turns spreads it over all probes' batches instead of handing one probe
// nothing else.
func runLoops(loops []*loop, budget time.Duration) {
	for _, l := range loops {
		for i := 0; i < probeBatch; i++ { // warm pools, caches and route tables
			l.op()
		}
	}
	for r := 0; r < probeRounds; r++ {
		for _, l := range loops {
			l.run(budget / probeRounds)
		}
	}
	for _, l := range loops {
		*l.into = l.result()
	}
}

// probes holds every probe's reading for one workload. A probe whose layer
// the workload does not use is left zero.
type probes struct {
	schedule, scheduleCancel          perOp
	hop                               perOp
	persist                           perOp
	codec                             perOp
	updateHop, logTable, cache        perOp
	apply                             perOp
	kvPut, kvGet, redisOp, appsHandle perOp
	roundtrip                         perOp
	next, action                      perOp
	record, emit                      perOp
}

// sink is a network node that drops what reaches it.
type sink struct {
	id  netsim.NodeID
	net *netsim.Network
	got func(pkt *netsim.Packet) // may be nil
}

func (s *sink) ID() netsim.NodeID { return s.id }
func (s *sink) HandlePacket(pkt *netsim.Packet) {
	if s.got != nil {
		s.got(pkt)
	}
	s.net.FreePacket(pkt)
}

func newSink(net *netsim.Network, id netsim.NodeID, name string) *sink {
	s := &sink{id: id, net: net}
	net.AddNode(s, name)
	return s
}

const (
	probeClient netsim.NodeID = 1
	probeSwitch netsim.NodeID = 1000
	probeDevice netsim.NodeID = 2000
	probeServer netsim.NodeID = 3000
)

func ackHeader(typ protocol.Type, h protocol.Header) protocol.Header {
	a := protocol.Header{Type: typ, SessionID: h.SessionID, SeqNum: h.SeqNum,
		FragIdx: h.FragIdx, FragTotal: h.FragTotal}
	a.Seal()
	return a
}

// updateMessage is a single-fragment update-req for seq around payload.
func updateMessage(seq uint32, payload []byte) protocol.Message {
	h := protocol.Header{Type: protocol.TypeUpdateReq, SessionID: 1, SeqNum: seq, FragTotal: 1}
	h.Seal()
	return protocol.Message{Hdr: h, Payload: payload}
}

// runProbes times every layer the workload uses, spending about budget per
// probe.
func runProbes(w spec, cfg harness.RunConfig, budget time.Duration) (*probes, error) {
	p := &probes{}
	ops := opStream(w, &cfg, 4096)
	next := func() func() workload.Op {
		i := 0
		return func() workload.Op { i++; return ops[i%len(ops)] }
	}
	// The payload a logged update carries on this workload.
	update := protocol.PutReq(workload.YCSBKey(1), make([]byte, cfg.ValueSize)).Encode()
	for _, op := range ops {
		if op.Update {
			update = op.Req.Encode()
			break
		}
	}

	var loops []*loop
	add := func(into *perOp, l loop) {
		l.into = into
		loops = append(loops, &l)
	}
	add(&p.schedule, probeSchedule(cfg, false))
	add(&p.scheduleCancel, probeSchedule(cfg, true))
	add(&p.hop, probeHop(update))
	add(&p.codec, probeCodec(next()))
	add(&p.apply, probeApply(update))
	add(&p.roundtrip, probeRoundtrip(cfg, next()))
	add(&p.record, probeRecord())
	add(&p.emit, probeEmit())
	if cfg.Design != pmnet.ClientServer { // the log path is in use
		add(&p.persist, probePersist(update))
		add(&p.updateHop, probeUpdateHop(update))
		add(&p.logTable, probeLogTable(update))
	}
	if cfg.CacheSize > 0 {
		add(&p.cache, probeCache(cfg.CacheSize, next()))
	}
	if w.open() {
		add(&p.action, probeAction(cfg))
	} else {
		gen := newGenerator(&cfg, sim.NewRand(cfg.Seed+77).Fork())
		add(&p.next, loop{op: func() { gen.Next() }})
	}
	if cfg.Workload != harness.WLIdeal {
		a, err := buildApp(&cfg)
		if err != nil {
			return nil, err
		}
		a.prefill()
		feed := next()
		add(&p.appsHandle, loop{op: func() { a.handler.Handle(feed().Req) }})
		if a.engine != nil {
			put, get := next(), next()
			value := make([]byte, cfg.ValueSize)
			add(&p.kvPut, loop{op: func() { _ = a.engine.Put(put().Req.Key(), value) }})
			add(&p.kvGet, loop{op: func() { a.engine.Get(get().Req.Key()) }})
		}
		if a.store != nil {
			add(&p.redisOp, probeRedis(a))
		}
	}
	runLoops(loops, budget)
	return p, nil
}

// probeSchedule: one chain of timers per client, each firing re-arming
// itself a request-path delay ahead (Engine.After + Step). The cancel
// variant also arms a retransmission timer a timeout ahead and cancels the
// previous one, as a client does on every response.
func probeSchedule(cfg harness.RunConfig, withCancel bool) loop {
	delays := [8]sim.Time{500, 1200, 3000, 8500, 15500, 800, 200, 40000}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = sim.Millisecond
	}
	e := sim.NewEngine()
	i := 0
	nop := func() {}
	timers := make([]sim.Event, cfg.Clients)
	var fire func()
	fire = func() {
		i++
		if withCancel {
			k := i % len(timers)
			timers[k].Cancel()
			timers[k] = e.After(timeout, nop)
		}
		e.After(delays[i%len(delays)], fire)
	}
	for c := 0; c < cfg.Clients; c++ {
		if withCancel {
			timers[c] = e.After(timeout, nop)
		}
		e.After(delays[c%len(delays)], fire)
	}
	return loop{eng: e, op: func() { e.Step() }}
}

// probeHop: one packet host → switch → host, through both host stacks.
func probeHop(payload []byte) loop {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	a := netsim.NewHost(net, probeClient, "a", netsim.ClientKernelStack, 1, r.Fork())
	b := netsim.NewHost(net, probeServer, "b", netsim.ServerKernelStack, 16, r.Fork())
	netsim.NewSwitch(net, probeSwitch, "sw", netsim.DefaultSwitchLatency)
	net.Connect(probeClient, probeSwitch, netsim.DefaultLink())
	net.Connect(probeSwitch, probeServer, netsim.DefaultLink())
	b.OnReceive(func(*netsim.Packet) {})
	msg := updateMessage(1, payload)
	return loop{eng: eng, op: func() {
		pkt := net.AllocPacket()
		pkt.To = probeServer
		pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
		pkt.PMNet = true
		pkt.Msg = msg
		a.Send(pkt)
		eng.Run()
	}}
}

// probePersist: one log-slot write through the device's SRAM queue into PM
// (Queue.TryWrite until the write retires).
func probePersist(payload []byte) loop {
	dc := dataplane.DefaultConfig()
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmem.DefaultConfig(dc.LogBytes))
	q := pmem.NewQueue(eng, dev, dc.QueueBytes)
	data := updateMessage(1, payload).Encode()
	slots := dc.LogBytes / dc.SlotBytes
	i := 0
	done := func() {}
	return loop{eng: eng, op: func() {
		i++
		q.TryWrite((i%slots)*dc.SlotBytes, data, done)
		eng.Run()
	}}
}

// probeCodec: a request's whole trip through the codec, client side then
// server side.
func probeCodec(next func() workload.Op) loop {
	seq := uint32(0)
	return loop{op: func() {
		op := next()
		typ := protocol.TypeBypassReq
		if op.Update {
			typ = protocol.TypeUpdateReq
		}
		var req protocol.Request
		if op.Req.Op == protocol.OpPut {
			req = protocol.PutReq(op.Req.Args[0], op.Req.Args[1])
		} else {
			req = op.Req
		}
		seq++
		msgs := protocol.Fragment(typ, 1, seq, req.Encode(), 0)
		re := protocol.NewReassembler(seq, msgs[0].Hdr.FragTotal)
		for _, m := range msgs {
			dm, err := protocol.DecodeMessage(m.Encode())
			if err != nil {
				panic(err)
			}
			payload, err := re.Add(dm)
			if err != nil {
				panic(err)
			}
			if payload != nil {
				if _, err := protocol.DecodeRequest(payload); err != nil {
					panic(err)
				}
			}
		}
		seq += uint32(len(msgs)) - 1
	}}
}

// probeUpdateHop: Device.HandlePacket for one update on its way in (log,
// forward, PMNet-ACK once durable) and the server-ACK on its way back
// (invalidate, forward). Client and server are sinks.
func probeUpdateHop(payload []byte) loop {
	eng := sim.NewEngine()
	net := netsim.New(eng, sim.NewRand(1))
	newSink(net, probeClient, "client")
	dev := dataplane.New(net, probeDevice, "pmnet", dataplane.DefaultConfig())
	srv := newSink(net, probeServer, "server")
	srv.got = func(pkt *netsim.Packet) {
		ack := net.AllocPacket()
		ack.From, ack.To = probeServer, pkt.From
		ack.SrcPort, ack.DstPort = pkt.DstPort, pkt.SrcPort
		ack.PMNet = true
		ack.Msg = protocol.Message{Hdr: ackHeader(protocol.TypeServerACK, pkt.Msg.Hdr)}
		dev.HandlePacket(ack)
	}
	net.Connect(probeClient, probeDevice, netsim.DefaultLink())
	net.Connect(probeDevice, probeServer, netsim.DefaultLink())
	seq := uint32(0)
	return loop{eng: eng, op: func() {
		seq++
		pkt := net.AllocPacket()
		pkt.From, pkt.To = probeClient, probeServer
		pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
		pkt.PMNet = true
		pkt.Msg = updateMessage(seq, payload)
		dev.HandlePacket(pkt)
		eng.Run()
	}}
}

// probeLogTable: LogTable.Insert until durable, then Invalidate.
func probeLogTable(payload []byte) loop {
	dc := dataplane.DefaultConfig()
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmem.DefaultConfig(dc.LogBytes))
	tab := dataplane.NewLogTable(dev, pmem.NewQueue(eng, dev, dc.QueueBytes), dc.SlotBytes)
	var st dataplane.LogStats
	seq := uint32(0)
	return loop{eng: eng, op: func() {
		seq++
		msg := updateMessage(seq, payload)
		tab.Insert(msg, int(probeServer), &st, nil)
		eng.Run()
		tab.Invalidate(msg.Hdr.HashVal, &st)
	}}
}

// probeCache: the read cache under the workload's key stream — an update
// marks and fills, its server-ACK settles it, a read looks up and fills on a
// miss.
func probeCache(entries int, next func() workload.Op) loop {
	c := dataplane.NewCache(entries)
	return loop{op: func() {
		op := next()
		key := string(op.Req.Key())
		if op.Update {
			c.OnUpdate(key, op.Req.Args[1])
			c.OnServerAck(key)
		} else if _, hit := c.Lookup(key); !hit {
			c.OnReadResponse(key, op.Req.Key())
		}
	}}
}

// probeApply: in-order updates into the server library with IdealHandler,
// from the RX stack to the server-ACK leaving the TX stack.
func probeApply(payload []byte) loop {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	newSink(net, probeClient, "client")
	host := netsim.NewHost(net, probeServer, "server", netsim.ServerKernelStack, 16, r.Fork())
	net.Connect(probeClient, probeServer, netsim.DefaultLink())
	server.New(host, server.IdealHandler{}, server.Config{})
	seq := uint32(0)
	return loop{eng: eng, op: func() {
		seq++
		pkt := net.AllocPacket()
		pkt.From, pkt.To = probeClient, probeServer
		pkt.SrcPort, pkt.DstPort = 40001, protocol.PortMin
		pkt.PMNet = true
		pkt.Msg = updateMessage(seq, payload)
		host.HandlePacket(pkt)
		eng.Run()
	}}
}

// probeRoundtrip: Session.SendUpdate against an echo node that answers as
// the design's far side would — the required PMNet-ACKs, then the server-ACK.
func probeRoundtrip(cfg harness.RunConfig, next func() workload.Op) loop {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	net := netsim.New(eng, r.Fork())
	host := netsim.NewHost(net, probeClient, "client", netsim.ClientKernelStack, 1, r.Fork())
	mode, required := client.ModeBaseline, 0
	if cfg.Design != pmnet.ClientServer {
		mode, required = client.ModePMNet, cfg.Replication
		if required < 1 {
			required = 1
		}
	}
	echo := newSink(net, probeServer, "echo")
	reply := func(to netsim.NodeID, req *netsim.Packet, typ protocol.Type) {
		ack := net.AllocPacket()
		ack.From, ack.To = probeServer, to
		ack.SrcPort, ack.DstPort = req.DstPort, req.SrcPort
		ack.PMNet = true
		ack.Msg = protocol.Message{Hdr: ackHeader(typ, req.Msg.Hdr)}
		net.Transmit(ack, probeServer)
	}
	echo.got = func(pkt *netsim.Packet) {
		for i := 0; i < required; i++ {
			reply(pkt.From, pkt, protocol.TypePMNetACK)
		}
		reply(pkt.From, pkt, protocol.TypeServerACK)
	}
	net.Connect(probeClient, probeServer, netsim.DefaultLink())
	sess := client.New(host, client.Config{Session: 1, Server: probeServer, Mode: mode,
		RequiredAcks: required, Timeout: cfg.Timeout, Backoff: cfg.RetryBackoff})
	done := func(client.Result) {}
	return loop{eng: eng, op: func() {
		op := next()
		for !op.Update { // reads complete on a response payload the echo does not build
			op = next()
		}
		sess.SendUpdate(op.Req, done)
		eng.Run()
	}}
}

// probeAction: one open-loop arrival — the next arrival time and the user
// action the mix draws for it.
func probeAction(cfg harness.RunConfig) loop {
	r := sim.NewRand(cfg.Seed + 177).Fork()
	mix := openloop.NewTwitterMix(cfg.Users, cfg.UpdateRatio, cfg.ValueSize)
	arr := arrival.New(arrival.Config{Rate: cfg.OfferedLoad / float64(cfg.Clients)}, r.Fork())
	var buf []workload.Op
	seq := uint64(0)
	return loop{op: func() {
		seq++
		arr.Next()
		buf = mix.Action(r, r.Intn(cfg.Users), seq, buf[:0])
	}}
}

// probeRedis: the store calls one retwis post and one timeline read make.
func probeRedis(a *app) loop {
	post := make([]byte, 100)
	timelines := make([][]byte, 1000)
	for u := range timelines {
		timelines[u] = []byte(fmt.Sprintf("timeline:%d", u))
	}
	pids := make([][]byte, 4096)
	postKeys := make([][]byte, len(pids))
	for i := range pids {
		pids[i] = []byte(fmt.Sprintf("u%d-%d", i%1000, i))
		postKeys[i] = append([]byte("post:"), pids[i]...)
	}
	i := 0
	return loop{calls: 5, op: func() {
		i++
		k, timeline := i%len(pids), timelines[i%len(timelines)]
		_, _ = a.store.Incr([]byte("next_post_id"))
		_ = a.store.Set(postKeys[k], post)
		_, _ = a.store.LPush(timeline, pids[k], 100)
		_, _ = a.store.LRange(timeline, 0, 9)
		_, _, _ = a.store.Get([]byte("post:latest"))
	}}
}

func probeRecord() loop {
	run := stats.NewRun(0)
	r := sim.NewRand(1)
	lats := make([]sim.Time, 1024)
	for i := range lats {
		lats[i] = sim.Time(r.LogNormal(10.8, 0.4)) // ≈ 50 µs median
	}
	i := 0
	now := sim.Time(0)
	return loop{op: func() {
		i++
		now += 1000
		run.Record(lats[i%len(lats)], now)
	}}
}

// probeEmit: Tracer.Emit into a ring with room (a full ring only counts a
// drop), so every batch gets a fresh tracer.
func probeEmit() loop {
	eng := sim.NewEngine()
	var tr *trace.Tracer
	fresh := func() {
		tr = trace.NewTracer(2 * probeBatch)
		tr.Bind(eng)
	}
	fresh()
	i := uint64(0)
	return loop{before: fresh, op: func() {
		i++
		tr.Emit(trace.EvStackTX, 1, i, 0)
	}}
}
