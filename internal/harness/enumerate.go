package harness

// Cell enumeration for every experiment: the "what to simulate" half of the
// former monolithic experiments.go. Each function returns the experiment's
// independent cells with their seeds fixed at enumeration time; the matching
// renderers live in render.go and consume the results in this exact order.

import (
	"fmt"

	"pmnet"
	"pmnet/internal/netsim"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/workload"
)

// designShort names designs in cell keys and metric keys.
func designShort(d pmnet.Design) string {
	switch d {
	case pmnet.ClientServer:
		return "base"
	case pmnet.PMNetSwitch:
		return "pmnet"
	case pmnet.PMNetNIC:
		return "nic"
	}
	return "unknown"
}

func fig2Cells(seed uint64) []Cell {
	return []Cell{cfgCell("hashmap", RunConfig{
		Design: pmnet.ClientServer, Workload: WLHashmap,
		Clients: 1, Requests: 800, Warmup: 50, UpdateRatio: 1.0, Seed: seed,
	})}
}

var fig15Payloads = []int{50, 100, 200, 400, 600, 800, 1000}

// fig15Designs orders the three designs of the payload sweep.
var fig15Designs = []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch, pmnet.PMNetNIC}

func fig15Cells(seed uint64) []Cell {
	var cells []Cell
	for _, p := range fig15Payloads {
		for _, d := range fig15Designs {
			cells = append(cells, cfgCell(fmt.Sprintf("%d/%s", p, designShort(d)), RunConfig{
				Design: d, Workload: WLIdeal,
				Requests: 600, Warmup: 50, ValueSize: p, UpdateRatio: 1, Seed: seed,
			}))
		}
	}
	return cells
}

var fig16Clients = []int{1, 4, 16, 32, 64, 96}

func fig16Cells(seed uint64) []Cell {
	var cells []Cell
	for _, design := range []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch} {
		for _, clients := range fig16Clients {
			cells = append(cells, cfgCell(fmt.Sprintf("%s/%d", designShort(design), clients), RunConfig{
				Design: design, Workload: WLIdeal, Clients: clients,
				Requests: 250, Warmup: 20, ValueSize: 1000, UpdateRatio: 1, Seed: seed,
			}))
		}
	}
	return cells
}

// fig18Alt carries the sampled means of the alternative logging designs,
// composed from the calibrated component models (client-side logging per
// [4], server-side logging per [56]).
type fig18Alt struct {
	client, client3, server, server3 float64
}

func fig18Cells(seed uint64) []Cell {
	alt := Cell{Key: "altmodels", Custom: func() (any, sim.Time) {
		r := sim.NewRand(seed + 5)
		const n = 2000
		sample := func(fn func() float64) float64 {
			var sum float64
			for i := 0; i < n; i++ {
				sum += fn()
			}
			return sum / n
		}
		pmWrite := 313.0 // ns: 273 media + serialization of ~100B
		// Client-side logging: app → local logger process round trip (two
		// client-stack traversals) + PM write.
		clientLog := sample(func() float64 {
			return float64(netsim.ClientKernelStack.Sample(r)) +
				float64(netsim.ClientKernelStack.Sample(r)) + pmWrite
		})
		// +3-way replication: ship the log to two peer clients in parallel
		// (client stack out, wire, peer stack in, and back); the client
		// proceeds when the slower peer has confirmed.
		peerRTT := func() float64 {
			return 2*float64(netsim.ClientKernelStack.Sample(r)) +
				2*float64(netsim.ClientKernelStack.Sample(r)) +
				4*float64(sim.Microsecond)
		}
		clientLog3 := sample(func() float64 {
			a, b := peerRTT(), peerRTT()
			if b > a {
				a = b
			}
			return float64(netsim.ClientKernelStack.Sample(r)) +
				float64(netsim.ClientKernelStack.Sample(r)) + pmWrite + a
		})
		// Server-side logging: full network path; the server logs at the edge
		// of its stack and acks immediately (processing off the path).
		wire := 4*float64(sim.Microsecond) + 2*float64(netsim.DefaultSwitchLatency)
		serverLog := sample(func() float64 {
			return 2*float64(netsim.ClientKernelStack.Sample(r)) +
				2*float64(netsim.ServerKernelStack.Sample(r)) + wire + pmWrite
		})
		// +replication: the primary synchronously ships the log to a replica
		// server before acking (server↔server RTT).
		serverLog3 := sample(func() float64 {
			return 2*float64(netsim.ClientKernelStack.Sample(r)) +
				2*float64(netsim.ServerKernelStack.Sample(r)) + wire + pmWrite +
				2*float64(netsim.ServerKernelStack.Sample(r)) + wire + pmWrite
		})
		return fig18Alt{client: clientLog, client3: clientLog3,
			server: serverLog, server3: serverLog3}, 0
	}}
	return []Cell{
		alt,
		cfgCell("pmnet", RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal,
			Requests: 800, Warmup: 50, UpdateRatio: 1, Seed: seed}),
		cfgCell("pmnet3", RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal,
			Requests: 800, Warmup: 50, UpdateRatio: 1, Replication: 3, Seed: seed}),
	}
}

var fig19Ratios = []float64{1.0, 0.75, 0.5, 0.25}

func fig19Cells(seed uint64, clients, requests int) []Cell {
	var cells []Cell
	for _, wl := range AllWorkloads {
		for _, ratio := range fig19Ratios {
			for _, design := range []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch} {
				cells = append(cells, cfgCell(
					fmt.Sprintf("%s/%d/%s", wl, int(ratio*100), designShort(design)),
					RunConfig{Design: design, Workload: wl,
						Clients: clients, Requests: requests, Warmup: 20,
						UpdateRatio: ratio, Seed: seed}))
			}
		}
	}
	return cells
}

// fig20Variant is one line of the Figure 20 CDF plots.
type fig20Variant struct {
	name  string
	des   pmnet.Design
	cache int
}

var fig20Variants = []fig20Variant{
	{"Client-Server", pmnet.ClientServer, 0},
	{"PMNet", pmnet.PMNetSwitch, 0},
	{"PMNet+cache", pmnet.PMNetSwitch, 4096},
}

var fig20Ratios = []float64{1.0, 0.5}

func fig20Cells(seed uint64) []Cell {
	var cells []Cell
	for _, ur := range fig20Ratios {
		for _, d := range fig20Variants {
			cells = append(cells, cfgCell(fmt.Sprintf("%s/%d", d.name, int(ur*100)), RunConfig{
				Design: d.des, Workload: WLHashmap, Clients: 4,
				Requests: 400, Warmup: 40, UpdateRatio: ur, Zipfian: true,
				CacheSize: d.cache, Keys: 1000, Seed: seed,
			}))
		}
	}
	return cells
}

func fig20cdfCells(seed uint64) []Cell {
	var cells []Cell
	for _, d := range fig20Variants {
		cells = append(cells, cfgCell(d.name, RunConfig{
			Design: d.des, Workload: WLHashmap, Clients: 4,
			Requests: 600, Warmup: 60, UpdateRatio: 0.5, Zipfian: true,
			CacheSize: d.cache, Keys: 1000, Seed: seed,
		}))
	}
	return cells
}

func fig21Cells(seed uint64) []Cell {
	return []Cell{
		cfgCell("base", RunConfig{Design: pmnet.ClientServer, Workload: WLIdeal,
			Requests: 800, Warmup: 50, UpdateRatio: 1, Seed: seed}),
		cfgCell("pmnet", RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal,
			Requests: 800, Warmup: 50, UpdateRatio: 1, Seed: seed}),
		cfgCell("pmnet3", RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal,
			Requests: 800, Warmup: 50, UpdateRatio: 1, Replication: 3, Seed: seed}),
		// Server-side 3-way replication: model the replica sync as a
		// server↔server RTT (sampled like Fig. 18) that the renderer appends
		// to the baseline request path.
		{Key: "serversync", Custom: func() (any, sim.Time) {
			r := sim.NewRand(seed + 9)
			var syncSum float64
			const n = 2000
			for i := 0; i < n; i++ {
				syncSum += 2*float64(netsim.ServerKernelStack.Sample(r)) +
					2*float64(sim.Microsecond) + 313
			}
			return syncSum / n, 0
		}},
	}
}

// fig22Variant is one row of the optimized-stack comparison.
type fig22Variant struct {
	name   string
	design pmnet.Design
	stacks pmnet.StackKind
}

var fig22Variants = []fig22Variant{
	{"Client-Server", pmnet.ClientServer, pmnet.KernelStack},
	{"PMNet", pmnet.PMNetSwitch, pmnet.KernelStack},
	{"Client-Server + libVMA", pmnet.ClientServer, pmnet.BypassStack},
	{"PMNet + libVMA", pmnet.PMNetSwitch, pmnet.BypassStack},
}

func fig22Cells(seed uint64) []Cell {
	var cells []Cell
	for _, row := range fig22Variants {
		cells = append(cells, cfgCell(row.name, RunConfig{Design: row.design,
			Workload: WLIdeal, Clients: 8, Requests: 250, Warmup: 20,
			UpdateRatio: 1, Stacks: row.stacks, Seed: seed}))
	}
	return cells
}

// recoveryOut carries the crash/replay measurements of §VI-B6.
type recoveryOut struct {
	logged  int      // log entries live at the crash
	resends uint64   // requests replayed to the recovering server
	total   sim.Time // virtual time from power-on to drained log
	perReq  sim.Time // total / resends
	drained bool
}

// putStream is one rig client's request stream: updates of a 100-byte value
// under the keys format(client, 0), format(client, 1), … The key buffer and
// the value are reused from one request to the next: the session has encoded
// a request by the time SendUpdate returns.
func putStream(format string, client int) workload.Generator {
	var key []byte
	val := make([]byte, 100)
	k := 0
	return workload.GeneratorFunc(func() workload.Op {
		key = fmt.Appendf(key[:0], format, client, k)
		k++
		return workload.Op{Req: pmnet.PutReq(key, val), Update: true}
	})
}

// drive plays gen on client c of bed in a closed loop of n requests, issuing
// the first at once and the rest as bed runs. record, if not nil, gets the
// latency of every request that succeeded and the number the client had
// completed before it.
func drive(bed *pmnet.Testbed, c int, gen workload.Generator, n uint64, record func(lat sim.Time, before uint64)) {
	d := &workload.Driver{Sess: bed.Session(c), Gen: gen}
	if record != nil {
		d.Record = func(lat sim.Time, _ workload.Op) { record(lat, d.Stats().Completed) }
	}
	d.Run(bed.Clients[c].Engine(), n, nil)
}

// crashReplay is the §VI-B6 rig: every client of cfg's testbed streams
// perClient updates, the server loses power mid-stream while the clients keep
// logging into PMNet, then it recovers and the log drains.
func crashReplay(cfg pmnet.Config, perClient uint64) (recoveryOut, sim.Time) {
	bed := pmnet.NewTestbed(cfg)
	defer bed.Release()
	for c := range bed.Clients {
		drive(bed, c, putStream("c%d-k%03d", c), perClient, nil)
	}
	bed.RunFor(300 * sim.Microsecond)
	bed.CrashServer()
	bed.RunFor(200 * sim.Microsecond) // clients keep logging into PMNet
	out := recoveryOut{logged: bed.Devices[0].Log().LiveEntries()}
	start := bed.Now()
	bed.RecoverServer()
	bed.Run()
	out.total = bed.Now() - start
	out.resends = bed.Devices[0].Stats().RecoveryResends
	if out.resends > 0 {
		out.perReq = out.total / sim.Time(out.resends)
	}
	out.drained = bed.Devices[0].Log().LiveEntries() == 0
	return out, bed.Now()
}

func recoveryCells(seed uint64) []Cell {
	return []Cell{{Key: "crash-replay", Custom: func() (any, sim.Time) {
		return crashReplay(pmnet.Config{
			Design: pmnet.PMNetSwitch, Clients: 4, Seed: seed,
			Timeout: 50 * sim.Millisecond, // keep clients from re-driving recovery
		}, 200)
	}}}
}

func tpcclockCells(seed uint64) []Cell {
	return []Cell{cfgCell("tpcc", RunConfig{Design: pmnet.PMNetSwitch,
		Workload: WLTPCC, Clients: 4, Requests: 400, Warmup: 0,
		UpdateRatio: 0.88, Seed: seed})}
}

// tailMeasure drives 4 measured updaters — plus, when noisy, 100 background
// readers saturating the server CPU — and returns the update-latency
// distribution.
func tailMeasure(seed uint64, d pmnet.Design, noisy bool) (*stats.Histogram, sim.Time) {
	bed := pmnet.NewTestbed(pmnet.Config{
		Design:  d,
		Clients: 4 + 100, // 4 measured updaters + 100 background readers
		Seed:    seed,
		Handler: pmnet.IdealHandler{Cost: 25 * sim.Microsecond},
	})
	defer bed.Release()
	h := stats.NewHistogram()
	measure := func(lat sim.Time, before uint64) {
		if before >= 30 { // each updater's first 30 warm up
			h.Record(lat)
		}
	}
	for c := 0; c < 4; c++ {
		drive(bed, c, putStream("m%d-%d", c), 300, measure)
	}
	if noisy {
		noise := workload.Op{Req: pmnet.GetReq([]byte("noise"))}
		read := workload.GeneratorFunc(func() workload.Op { return noise })
		for c := 4; c < 104; c++ {
			drive(bed, c, read, 400, nil)
		}
	}
	bed.Run()
	return h, bed.Now()
}

func tailCells(seed uint64) []Cell {
	var cells []Cell
	for _, noisy := range []bool{false, true} {
		for _, d := range []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch} {
			d, noisy := d, noisy
			label := "idle"
			if noisy {
				label = "noisy"
			}
			cells = append(cells, Cell{
				Key: fmt.Sprintf("%s/%s", label, designShort(d)),
				Custom: func() (any, sim.Time) {
					h, now := tailMeasure(seed, d, noisy)
					return h, now
				},
			})
		}
	}
	return cells
}
