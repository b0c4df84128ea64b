package main

import (
	"math"

	"pmnet"
	"pmnet/internal/harness"
	"pmnet/internal/netsim"
	"pmnet/internal/sim"
)

// defaultScale is the one common factor every request count below is
// multiplied by. The issue's sizes (scale 1) make each run take 13–21 s on a
// 2-CPU host; the driver's contract (136 runs with set-up inside 3420 s)
// needs a whole run — three set-ups plus a dozen seconds of repeated
// simulations — to fit in about 20 s, so one simulation is cut to 1.5–3 s and
// repeated, and the run reports medians over the repetitions.
const defaultScale = 0.125

// tracedFraction is the size of the traced run relative to the measured one.
const tracedFraction = 0.1

// spec is one benchmark workload: a harness.RunConfig at full size plus the
// reason it exists. Names are final; later issues cite them.
type spec struct {
	name string
	loop string // closed or open, with its client count or rate
	why  string
	full harness.RunConfig
}

// workloads lists the six workloads at full (scale 1) size. Requests and
// Duration are the only fields scaled; see (spec).config. Keys 2000,
// ValueSize 100 and MaxInFlight 1024 are harness.Run's defaults, written out
// because the traced run and the probes build from the same config without
// going through harness.Run.
var workloads = []spec{
	{
		name: "ideal_sat",
		loop: "closed, 64 clients",
		why:  "Fig. 16 saturation: sim, netsim, dataplane, protocol, client and server do all the work, kv none",
		full: harness.RunConfig{Design: pmnet.PMNetSwitch, Workload: harness.WLIdeal,
			Clients: 64, Requests: 30000, Warmup: 100, ValueSize: 1000, UpdateRatio: 1, Keys: 2000},
	},
	{
		name: "ideal_sat_shards2",
		loop: "closed, 64 clients",
		why:  "ideal_sat on the conservative-PDES route at 2 shards: the only place barrier and handoff cost shows",
		full: harness.RunConfig{Design: pmnet.PMNetSwitch, Workload: harness.WLIdeal,
			Clients: 64, Requests: 30000, Warmup: 100, ValueSize: 1000, UpdateRatio: 1, Keys: 2000,
			Shards: 2},
	},
	{
		name: "base_small",
		loop: "closed, 64 clients",
		why:  "smallest packets, no PM logging: per-packet cost with the dataplane log path bypassed",
		full: harness.RunConfig{Design: pmnet.ClientServer, Workload: harness.WLIdeal,
			Clients: 64, Requests: 80000, Warmup: 100, ValueSize: 50, UpdateRatio: 1, Keys: 2000},
	},
	{
		name: "kv_mixed",
		loop: "closed, 16 clients",
		why:  "zipfian reads beside writes on a B-tree with the read cache: kv, pmobj, apps and workload dominate host time",
		full: harness.RunConfig{Design: pmnet.PMNetSwitch, Workload: harness.WLBTree,
			Clients: 16, Requests: 100000, Warmup: 100, ValueSize: 100, UpdateRatio: 0.5,
			Zipfian: true, CacheSize: 4096, Keys: 100000},
	},
	{
		name: "retwis_open",
		loop: "open, Poisson 150k actions/s of virtual time over 16 transports",
		why:  "the only open loop: openloop, arrival, rediskv and the session table, below the knee so nothing is shed",
		full: harness.RunConfig{Design: pmnet.PMNetSwitch, Workload: harness.WLTwitter,
			Clients: 16, OfferedLoad: 150000, Duration: 2500 * sim.Millisecond,
			// The issue's UpdateRatio 0.5 puts sim_p50_us in the valley between
			// the update actions' mode (~90 µs) and the reads' (~175 µs): it read
			// 130–162 µs by seed. At 0.4 it sits inside the reads' mode.
			Users: 1000000, UpdateRatio: 0.4, RetryBackoff: true,
			ValueSize: 100, Keys: 2000, MaxInFlight: 1024},
	},
	{
		name: "lossy_repl3",
		loop: "closed, 32 clients",
		why:  "the reliability path: 3-device chain, ECMP leaf-spine, 2% loss, retransmission timers, reorder buffer",
		full: harness.RunConfig{Design: pmnet.PMNetSwitch, Workload: harness.WLIdeal,
			Clients: 32, Requests: 20000, Warmup: 100, ValueSize: 1000, UpdateRatio: 1, Keys: 2000,
			Replication: 3, Topology: "leaf-spine",
			// The issue's 1 % loss puts sim_p99_us on the retransmission cliff:
			// 1.03 % of requests wait out the timeout, and 6 of 30 seeds read
			// 124–208 µs where the others read 232. At 2 % all 30 read 239.
			Impair: netsim.Impairments{GoodLoss: 0.02}, Timeout: 200 * sim.Microsecond},
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// config returns the workload's RunConfig at the given scale. The seed only
// feeds the generated inputs (keys, arrivals, loss draws).
func (w spec) config(scale float64, seed uint64) harness.RunConfig {
	cfg := w.full
	cfg.Seed = seed
	if w.open() {
		cfg.Duration = sim.Time(math.Round(float64(cfg.Duration) * scale))
		if cfg.Duration < sim.Millisecond {
			cfg.Duration = sim.Millisecond
		}
		// 100 ms of 2500 ms at full size, kept proportional so the traced
		// run's shorter horizon still has a measurement window.
		cfg.WarmupDur = cfg.Duration / 25
	} else {
		cfg.Requests = int(math.Round(float64(cfg.Requests) * scale))
		if cfg.Requests < 1 {
			cfg.Requests = 1
		}
	}
	return cfg
}

// setupConfig cuts cfg to one request per client (1 ms of arrivals on the
// open loop): build + prefill + one round trip.
func (w spec) setupConfig(cfg harness.RunConfig) harness.RunConfig {
	if w.open() {
		cfg.Duration = sim.Millisecond
		cfg.WarmupDur = 0
	} else {
		cfg.Requests = 1
		cfg.Warmup = 0
	}
	return cfg
}

func (w spec) open() bool { return w.full.OfferedLoad > 0 }
