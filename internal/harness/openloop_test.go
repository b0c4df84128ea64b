package harness

import (
	"runtime"
	"testing"

	"pmnet"
	"pmnet/internal/arrival"
	"pmnet/internal/sim"
)

func openCfg(seed uint64) RunConfig {
	return RunConfig{
		Design:      pmnet.PMNetSwitch,
		Workload:    WLTwitter,
		Clients:     4,
		Seed:        seed,
		Zipfian:     true,
		OfferedLoad: 200000,
		Duration:    20 * sim.Millisecond,
		WarmupDur:   4 * sim.Millisecond,
		Users:       20000,
		UpdateRatio: UpdateRatioUnset,
	}
}

func TestOpenLoopSmoke(t *testing.T) {
	res, err := Run(openCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	open := res.Open
	if open == nil {
		t.Fatal("open-loop run returned no OpenLoopResult")
	}
	// 200k/s over 20 ms ≈ 4000 arrivals (Poisson noise on top).
	if open.Offered < 3000 || open.Offered > 5000 {
		t.Errorf("offered = %d, want ≈4000", open.Offered)
	}
	if open.MeasuredDone == 0 || res.Run.Requests == 0 {
		t.Fatalf("no measured completions: %+v", open.Stats)
	}
	if res.Run.Requests != open.MeasuredDone {
		t.Errorf("run.Requests %d != MeasuredDone %d", res.Run.Requests, open.MeasuredDone)
	}
	if res.Run.Throughput() <= 0 {
		t.Error("goodput not computed")
	}
	if open.PeakSessions > open.PeakActive {
		t.Errorf("session table (%d) larger than in-flight actions (%d)",
			open.PeakSessions, open.PeakActive)
	}
	if open.Reservoir.Len() == 0 {
		t.Error("empty tail reservoir")
	}
	// Below the knee at this load: nearly nothing shed.
	if open.Shed > open.Offered/10 {
		t.Errorf("shed %d of %d at moderate load", open.Shed, open.Offered)
	}
}

// TestOpenLoopFewerUsersThanClients: every transport's driver needs a user
// of its own; a population smaller than the transport count is a
// configuration error Run reports, not a panic inside a driver.
func TestOpenLoopFewerUsersThanClients(t *testing.T) {
	cfg := openCfg(7)
	cfg.Users, cfg.Clients = 4, 16
	res, err := Run(cfg)
	const want = "harness: Users (4) must be at least Clients (16)"
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, %v; want the error %q", res, err, want)
	}
}

// TestOpenLoopDeterminism: identical configs must produce identical results —
// including the exact reservoir contents — on the classic path.
func TestOpenLoopDeterminism(t *testing.T) {
	a, err := Run(openCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(openCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	compareOpenRuns(t, a, b)
}

// TestOpenLoopShardInvariance: the sharded path must be byte-identical for
// every shard count (the -shards 1 vs 4 CI diff bottoms out here).
func TestOpenLoopShardInvariance(t *testing.T) {
	cfg1 := openCfg(13)
	cfg1.Shards = 1
	cfg4 := openCfg(13)
	cfg4.Shards = 4
	a, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	compareOpenRuns(t, a, b)
}

func compareOpenRuns(t *testing.T, a, b *RunResult) {
	t.Helper()
	if a.Open.Stats != b.Open.Stats {
		t.Errorf("open stats diverged:\n  a=%+v\n  b=%+v", a.Open.Stats, b.Open.Stats)
	}
	if a.Run.Requests != b.Run.Requests {
		t.Errorf("requests %d != %d", a.Run.Requests, b.Run.Requests)
	}
	for _, p := range []float64{50, 99, 99.9, 100} {
		if av, bv := a.Run.Hist.Percentile(p), b.Run.Hist.Percentile(p); av != bv {
			t.Errorf("p%g: %v != %v", p, av, bv)
		}
	}
	as, bs := a.Open.Reservoir.Samples(), b.Open.Reservoir.Samples()
	if len(as) != len(bs) {
		t.Fatalf("reservoir sizes %d != %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("reservoir sample %d: %v != %v", i, as[i], bs[i])
		}
	}
}

// TestOpenLoopArrivalKinds: every arrival process runs end to end through
// the harness.
func TestOpenLoopArrivalKinds(t *testing.T) {
	for _, kind := range []arrival.Kind{arrival.MMPP, arrival.Diurnal, arrival.Flash} {
		cfg := openCfg(17)
		cfg.Arrival.Kind = kind
		cfg.Duration = 10 * sim.Millisecond
		cfg.WarmupDur = 2 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Open.MeasuredDone == 0 {
			t.Errorf("%v: no measured completions", kind)
		}
	}
}

// TestOpenLoopMemoryFlat is the scale assertion behind "a million users is a
// config number": live state is O(active sessions), never O(users). It runs
// the same offered load against a 10× larger user population and asserts
// (a) the active-session table stays bounded by the admission cap, and
// (b) retained heap does not grow with the user count.
func TestOpenLoopMemoryFlat(t *testing.T) {
	heapAfterRun := func(users int) (uint64, *OpenLoopResult) {
		cfg := openCfg(23)
		cfg.Users = users
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		open := res.Open
		res = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, open
	}
	small, openS := heapAfterRun(10000)
	big, openB := heapAfterRun(100000)

	if openB.PeakActive > 1024 { // RunConfig.MaxInFlight default
		t.Errorf("peak active %d exceeds the admission cap", openB.PeakActive)
	}
	if openB.PeakSessions > openB.PeakActive {
		t.Errorf("session table peak %d > active peak %d", openB.PeakSessions, openB.PeakActive)
	}
	if openB.MeasuredDone == 0 || openS.MeasuredDone == 0 {
		t.Fatal("no completions")
	}
	// 10× the users must not grow retained heap: allow 8 MB of GC noise,
	// which is far below any O(users) footprint (100k users × even 100 B
	// of per-user state would be 10 MB on its own).
	const ceiling = 8 << 20
	if big > small+ceiling {
		t.Errorf("heap grew with user count: %d B at 10k users → %d B at 100k (Δ %d B > %d B ceiling)",
			small, big, big-small, uint64(ceiling))
	}
	t.Logf("heap after run: 10k users = %d B, 100k users = %d B; peak sessions = %d",
		small, big, openB.PeakSessions)
}
