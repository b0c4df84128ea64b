package harness

import (
	"fmt"
	"testing"

	"pmnet"
)

// These tests assert the *shape* of every reproduced figure: who wins, by
// roughly what factor, and where the crossovers sit — the reproduction
// contract from DESIGN.md.

func TestFig2ServerSideDominates(t *testing.T) {
	r := RunSpec(Specs["fig2"], 1, 1)
	share := r.Metrics["server_share"]
	if share < 0.55 || share > 0.85 {
		t.Fatalf("server-side share %.2f, paper ≈0.70\n%s", share, r.Table.Format())
	}
}

func TestFig15SpeedupShape(t *testing.T) {
	r := RunSpec(Specs["fig15"], 2, 1)
	s50 := r.Metrics["speedup_switch_50"]
	s1000 := r.Metrics["speedup_switch_1000"]
	if s50 < 1.8 {
		t.Fatalf("speedup at 50B = %.2f, want ≥1.8 (paper 2.83)\n%s", s50, r.Table.Format())
	}
	if s1000 >= s50 {
		t.Fatalf("speedup must shrink with payload: 50B=%.2f 1000B=%.2f", s50, s1000)
	}
	if s1000 < 1.4 {
		t.Fatalf("speedup at 1000B = %.2f, want ≥1.4 (paper 2.19)", s1000)
	}
	// Switch vs NIC nearly identical (paper: <1µs).
	for _, p := range []int{50, 1000} {
		gap := r.Metrics[fmt.Sprintf("switch_nic_gap_us_%d", p)]
		if gap < 0 {
			gap = -gap
		}
		if gap > 3 {
			t.Fatalf("switch/NIC gap at %dB = %.1fµs, want ≈0", p, gap)
		}
	}
}

func TestFig16SaturationShape(t *testing.T) {
	r := RunSpec(Specs["fig16"], 3, 1)
	// Below saturation PMNet latency < baseline.
	if r.Metrics["lat_us_pmnet_4"] >= r.Metrics["lat_us_base_4"] {
		t.Fatalf("PMNet not faster at low load\n%s", r.Table.Format())
	}
	// Latency must spike as the offered load approaches line rate.
	if r.Metrics["lat_us_pmnet_96"] < 2*r.Metrics["lat_us_pmnet_4"] {
		t.Fatalf("no latency spike near saturation: %.1f vs %.1f",
			r.Metrics["lat_us_pmnet_96"], r.Metrics["lat_us_pmnet_4"])
	}
	// Bandwidth is capped near 10 Gbps.
	if r.Metrics["gbps_pmnet_96"] > 11 {
		t.Fatalf("bandwidth %.1f exceeds the 10G line rate", r.Metrics["gbps_pmnet_96"])
	}
	if r.Metrics["gbps_pmnet_96"] < 6 {
		t.Fatalf("bandwidth %.1f never approached line rate", r.Metrics["gbps_pmnet_96"])
	}
}

func TestFig18Ordering(t *testing.T) {
	r := RunSpec(Specs["fig18"], 4, 1)
	m := r.Metrics
	// Unreplicated: client-side < PMNet < server-side (paper 10.4/21.5/47.97).
	if !(m["client_us"] < m["pmnet_us"] && m["pmnet_us"] < m["server_us"]) {
		t.Fatalf("unreplicated ordering wrong:\n%s", r.Table.Format())
	}
	// Replicated: PMNet < client-side < server-side (paper 22.8/41.61/94.02).
	if !(m["pmnet3_us"] < m["client3_us"] && m["client3_us"] < m["server3_us"]) {
		t.Fatalf("replicated ordering wrong:\n%s", r.Table.Format())
	}
	// PMNet replication nearly free (paper: 21.5 → 22.8).
	if m["pmnet3_us"] > m["pmnet_us"]*1.5 {
		t.Fatalf("PMNet replication overhead too high: %.1f → %.1f", m["pmnet_us"], m["pmnet3_us"])
	}
}

func TestFig19SpeedupShape(t *testing.T) {
	r := RunSpec(fig19Spec(4, 60), 5, 1) // smaller instance for test speed
	avg100 := r.Metrics["avg_100"]
	avg25 := r.Metrics["avg_25"]
	if avg100 < 1.6 {
		t.Fatalf("average speedup at 100%% updates = %.2f, want ≥1.6 (paper 4.31)\n%s",
			avg100, r.Table.Format())
	}
	if avg25 >= avg100 {
		t.Fatalf("speedup must shrink with read share: 100%%=%.2f 25%%=%.2f", avg100, avg25)
	}
	// Every workload must individually benefit at 100% updates.
	for _, wl := range AllWorkloads {
		if s := r.Metrics[string(wl)+"_100"]; s < 1.2 {
			t.Fatalf("workload %s speedup %.2f at 100%% updates", wl, s)
		}
	}
}

func TestFig20CacheShape(t *testing.T) {
	r := RunSpec(Specs["fig20"], 6, 1)
	m := r.Metrics
	// 100% updates: PMNet mean and p99 well below baseline (paper 3.23x p99).
	if m["mean_us_PMNet_100"] >= m["mean_us_Client-Server_100"] {
		t.Fatalf("PMNet not faster at 100%% updates\n%s", r.Table.Format())
	}
	if m["p99_us_PMNet_100"] >= m["p99_us_Client-Server_100"] {
		t.Fatalf("PMNet p99 not better at 100%% updates\n%s", r.Table.Format())
	}
	// 50% updates: PMNet-without-cache has the p50 knee — its p90 degrades
	// toward baseline — while PMNet+cache keeps p90 low (paper's green line).
	if m["p50_us_PMNet_50"] >= m["p50_us_Client-Server_50"] {
		t.Fatalf("PMNet p50 should beat baseline at 50%% updates")
	}
	if m["p90_us_PMNet+cache_50"] >= m["p90_us_PMNet_50"] {
		// cache must extend the benefit past the knee
		t.Fatalf("cache does not extend benefit past p50 knee:\n%s", r.Table.Format())
	}
	if m["mean_us_PMNet+cache_50"] >= m["mean_us_Client-Server_50"] {
		t.Fatalf("PMNet+cache mean not better than baseline")
	}
}

func TestFig21ReplicationShape(t *testing.T) {
	r := RunSpec(Specs["fig21"], 7, 1)
	if v := r.Metrics["pmnet_vs_server_repl"]; v < 2.5 {
		t.Fatalf("PMNet repl vs server repl = %.2fx, want ≥2.5 (paper 5.88)\n%s",
			v, r.Table.Format())
	}
	if ov := r.Metrics["repl_overhead"]; ov < 0 || ov > 0.45 {
		t.Fatalf("replication overhead %.0f%%, paper 16%%", ov*100)
	}
}

func TestFig22StackShape(t *testing.T) {
	r := RunSpec(Specs["fig22"], 8, 1)
	k := r.Metrics["kernel_speedup"]
	b := r.Metrics["bypass_speedup"]
	if k < 1.5 {
		t.Fatalf("kernel-stack speedup %.2f, want ≥1.5 (paper 3.08)\n%s", k, r.Table.Format())
	}
	if b < 1.2 {
		t.Fatalf("bypass-stack speedup %.2f, want ≥1.2 (paper 3.56)", b)
	}
}

func TestRecoveryShape(t *testing.T) {
	r := RunSpec(Specs["recovery"], 9, 1)
	if r.Metrics["replayed"] == 0 {
		t.Fatalf("nothing replayed\n%s", r.Table.Format())
	}
	if r.Metrics["drained"] != 1 {
		t.Fatalf("log not drained after recovery\n%s", r.Table.Format())
	}
	per := r.Metrics["per_request_us"]
	if per <= 0 || per > 500 {
		t.Fatalf("per-request resend %.1fµs implausible (paper 67µs)", per)
	}
}

func TestTPCCLockFractionReproduced(t *testing.T) {
	r := RunSpec(Specs["tpcclock"], 10, 1)
	f := r.Metrics["lock_fraction"]
	if f < 0.10 || f > 0.18 {
		t.Fatalf("lock fraction %.3f, paper 0.137\n%s", f, r.Table.Format())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	_, err := Run(RunConfig{Design: pmnet.ClientServer, Workload: "nope"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in long mode only")
	}
	for _, id := range ExperimentOrder {
		if Specs[id] == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
}

func TestTailContentionShape(t *testing.T) {
	r := RunSpec(Specs["tail"], 11, 1)
	m := r.Metrics
	// Server contention must inflate the baseline p99 substantially...
	if m["p99_us_base_1"] < m["p99_us_base_0"]*1.3 {
		t.Fatalf("baseline p99 not inflated by contention: %.1f → %.1f\n%s",
			m["p99_us_base_0"], m["p99_us_base_1"], r.Table.Format())
	}
	// ...while PMNet p99 stays close to its uncontended value.
	if m["p99_us_pmnet_1"] > m["p99_us_pmnet_0"]*1.5 {
		t.Fatalf("PMNet p99 degraded under contention: %.1f → %.1f\n%s",
			m["p99_us_pmnet_0"], m["p99_us_pmnet_1"], r.Table.Format())
	}
	// And the contended gap is large.
	if m["p99_us_base_1"] < 2*m["p99_us_pmnet_1"] {
		t.Fatalf("contended tail gap too small\n%s", r.Table.Format())
	}
}

func TestFig20CDFKneeShape(t *testing.T) {
	r := RunSpec(Specs["fig20cdf"], 12, 1)
	m := r.Metrics
	// Below the knee (p30) PMNet-no-cache rides the fast path...
	if m["pmnet_p30.0"] > m["base_p30.0"]*0.6 {
		t.Fatalf("PMNet p30 %.1f not well below baseline %.1f\n%s",
			m["pmnet_p30.0"], m["base_p30.0"], r.Table.Format())
	}
	// ...above it (p80) it converges toward the baseline (within 25%)...
	if m["pmnet_p80.0"] < m["base_p80.0"]*0.75 {
		t.Fatalf("no knee: PMNet p80 %.1f vs baseline %.1f\n%s",
			m["pmnet_p80.0"], m["base_p80.0"], r.Table.Format())
	}
	// ...while the cache keeps a wide gap at p80.
	if m["cache_p80.0"] > m["base_p80.0"]*0.6 {
		t.Fatalf("cache line not holding: p80 %.1f vs baseline %.1f\n%s",
			m["cache_p80.0"], m["base_p80.0"], r.Table.Format())
	}
}
