package harness

// The "impairments" experiment: the scenario × system scorecard over the
// netsim impairment layer and the generated topologies. Each scenario is one
// deterministic network condition — clean, Gilbert–Elliott burst loss,
// ACK-path loss, lognormal jitter, bounded reordering, duplication, a
// token-bucket rate cap, an oversubscribed leaf-spine incast, a fat-tree
// fabric — and each is measured three ways: the client-server baseline, the
// PMNet switch deployment, and a crash/recovery run under the same
// impairment. The rendered table answers the question the paper's clean-link
// evaluation cannot: where early ACKs keep winning once the network degrades,
// and where they stop (the ack-starve row: a replication chain's extra ACK
// traffic on a bandwidth-starved ACK path pays rather than earns).
//
// Determinism: every impairment draw comes from a per-link forked RNG stream
// (internal/netsim/impair.go), so the whole scorecard is byte-identical
// across -shards and -parallel settings — pinned by TestImpairmentsByteIdentity.

import (
	"fmt"

	"pmnet"
	"pmnet/internal/netsim"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/trace"
)

// impairScenario is one network condition of the matrix.
type impairScenario struct {
	key     string
	impair  netsim.Impairments
	ackOnly bool // impair only the edge→client (ACK) direction

	topo     pmnet.TopologyKind
	leaves   int
	spines   int
	oversub  float64
	fatTreeK int

	clients     int // override the sweep default (incast fan-in)
	replication int // PMNet device-chain length (0 = single device)
}

// impairScenarios is the scenario axis of the scorecard, in render order.
var impairScenarios = []impairScenario{
	{key: "clean"},
	{key: "burst-loss", impair: netsim.Impairments{
		GoodLoss: 0.001, BadLoss: 0.3, GoodToBad: 0.02, BadToGood: 0.2}},
	{key: "ack-loss", ackOnly: true, impair: netsim.Impairments{GoodLoss: 0.05}},
	{key: "jitter", impair: netsim.Impairments{
		JitterMedian: 20 * sim.Microsecond, JitterSigma: 0.8}},
	{key: "reorder", impair: netsim.Impairments{
		ReorderProb: 0.1, ReorderWindow: 50 * sim.Microsecond}},
	{key: "duplicate", impair: netsim.Impairments{DupProb: 0.05}},
	// 100 Mbps / 2 KB burst binds on the 400 B request stream: the token
	// bucket paces both systems to the same wire rate, compressing PMNet's
	// win toward a wash.
	{key: "rate-cap", impair: netsim.Impairments{RateBps: 1e8, BurstBytes: 2 << 10}},
	// A starved ACK path under replication is where early-ACK degrades: each
	// request sends three PMNet-ACKs plus the server-ACK down the capped
	// client link, quadrupling the baseline's ACK bytes — the extra ACK
	// traffic queues ahead of the completing ACK and pays rather than earns.
	{key: "ack-starve", ackOnly: true, replication: 3,
		impair: netsim.Impairments{RateBps: 2e7, BurstBytes: 512}},
	{key: "incast", clients: 24, topo: pmnet.LeafSpineTopology,
		leaves: 4, spines: 2, oversub: 4},
	{key: "fat-tree", topo: pmnet.FatTreeTopology, fatTreeK: 4},
}

// topoString maps the testbed enum back to the RunConfig string knob.
func topoString(k pmnet.TopologyKind) string {
	switch k {
	case pmnet.LeafSpineTopology:
		return "leaf-spine"
	case pmnet.FatTreeTopology:
		return "fat-tree"
	}
	return "star"
}

// impairRunConfig builds the measured-run config for one scenario × design.
func impairRunConfig(sc impairScenario, d pmnet.Design, seed uint64, clients, requests int) RunConfig {
	if sc.clients > 0 {
		clients = sc.clients
	}
	return RunConfig{
		Design: d, Workload: WLIdeal, Clients: clients,
		Requests: requests, Warmup: 10, ValueSize: 400, UpdateRatio: 1,
		Seed: seed, Replication: sc.replication,
		// Loss scenarios recover by retransmission; the paper-default 1 ms
		// timeout would dominate every latency column, so the matrix runs a
		// tight 200 µs timeout on both systems.
		Timeout:       200 * sim.Microsecond,
		Topology:      topoString(sc.topo),
		Leaves:        sc.leaves,
		Spines:        sc.spines,
		Oversub:       sc.oversub,
		FatTreeK:      sc.fatTreeK,
		Impair:        sc.impair,
		ImpairAckPath: sc.ackOnly,
	}
}

// impairBedConfig builds the crash/recovery testbed for one scenario: the
// §VI-B6 rig with the scenario's impairments and topology applied.
func impairBedConfig(sc impairScenario, seed uint64) pmnet.Config {
	return pmnet.Config{
		Design: pmnet.PMNetSwitch, Clients: 4, Seed: seed,
		Replication: sc.replication,
		// Long enough that in-flight requests are not re-driven during the
		// crash window, short enough that impairment-lost packets recover
		// within the drain instead of serializing 50 ms stalls.
		Timeout:       2 * sim.Millisecond,
		Topology:      sc.topo,
		Leaves:        sc.leaves,
		Spines:        sc.spines,
		Oversub:       sc.oversub,
		FatTreeK:      sc.fatTreeK,
		Impair:        sc.impair,
		ImpairAckPath: sc.ackOnly,
	}
}

// impairRecoveryCell measures crash/replay under one scenario: the recovery
// experiment's rig on the scenario's testbed.
func impairRecoveryCell(sc impairScenario, seed uint64) Cell {
	return Cell{Key: sc.key + "/recovery", Custom: func() (any, sim.Time) {
		return crashReplay(impairBedConfig(sc, seed), 100)
	}}
}

// impairmentsCells enumerates scenario × {baseline, pmnet, recovery}.
func impairmentsCells(seed uint64, clients, requests int) []Cell {
	var cells []Cell
	for _, sc := range impairScenarios {
		cells = append(cells,
			cfgCell(sc.key+"/base", impairRunConfig(sc, pmnet.ClientServer, seed, clients, requests)),
			cfgCell(sc.key+"/pmnet", impairRunConfig(sc, pmnet.PMNetSwitch, seed, clients, requests)),
			impairRecoveryCell(sc, seed),
		)
	}
	return cells
}

// counterValue reads one named counter out of a cell's registry snapshot.
func counterValue(cs []trace.Snapshot, name string) uint64 {
	for _, c := range cs {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// impairVerdict classifies one scenario's speedup: where early-ACK keeps
// winning, where the comparison is a wash, and where PMNet degrades.
func impairVerdict(speedup float64) string {
	switch {
	case speedup >= 1.10:
		return "pmnet"
	case speedup <= 0.95:
		return "degrades"
	default:
		return "wash"
	}
}

func impairmentsRender(seed uint64, cells []CellResult) Result {
	t := stats.Table{
		Title: "Impairment matrix: baseline vs PMNet switch per network condition",
		Columns: []string{"scenario", "speedup", "base p99 (us)", "pmnet p99 (us)",
			"pmnet p999 (us)", "resends", "burst drops", "dups", "recovery (us)", "verdict"},
	}
	metrics := map[string]float64{}
	for i, sc := range impairScenarios {
		base, pm, rec := cells[3*i], cells[3*i+1], cells[3*i+2]
		speedup := base.Run.Hist.Mean().Micros() / pm.Run.Hist.Mean().Micros()
		out := rec.V.(recoveryOut)
		t.AddRow(sc.key,
			fmt.Sprintf("%.2fx", speedup),
			us(base.Run.Hist.Percentile(99)),
			us(pm.Run.Hist.Percentile(99)),
			us(pm.Run.Hist.Percentile(99.9)),
			fmt.Sprintf("%d", counterValue(pm.Counters, "client.resends")),
			fmt.Sprintf("%d", counterValue(pm.Counters, "net.dropped_burst")),
			fmt.Sprintf("%d", counterValue(pm.Counters, "net.duplicated")),
			us(out.total),
			impairVerdict(speedup))
		metrics["speedup_"+sc.key] = speedup
		metrics["recovery_us_"+sc.key] = out.total.Micros()
		metrics["p99_pmnet_us_"+sc.key] = pm.Run.Hist.Percentile(99).Micros()
	}
	return Result{
		ID:    "impairments",
		Table: t,
		Notes: []string{
			"Impairments apply to the client access links (ack-loss: ACK direction",
			"only); draws come from per-link forked RNG streams, so the table is",
			"byte-identical across -shards/-parallel. verdict: pmnet = speedup >= 1.10,",
			"degrades = speedup <= 0.95 (PMNet's extra ACK traffic pays, not earns),",
			"wash = in between. recovery = power-cut to drained log, same condition.",
		},
		Metrics: metrics,
	}
}

// impairmentsSpec parameterizes the matrix; the registered experiment runs
// the full-size instance, tests run smaller ones.
func impairmentsSpec(clients, requests int) *Spec {
	return &Spec{
		ID: "impairments",
		Enumerate: func(seed uint64) []Cell {
			return impairmentsCells(seed, clients, requests)
		},
		Render: impairmentsRender,
	}
}
