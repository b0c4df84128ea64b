package harness

// Whole-path allocation pin: the per-layer pins (dataplane, server, client,
// workload alloc_test.go) each hold one hop to its count; this one holds
// their sum, so an allocation site that appears between the layers — or in a
// layer without a pin — cannot go unnoticed.

import (
	"runtime"
	"testing"

	"pmnet"
	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
)

// TestUpdatePathAllocsPerRequest runs the Fig. 16 saturation shape (64
// closed-loop clients, 1000-byte updates, PMNet switch, ideal handler) at N
// and at 2N requests. Set-up and pool warm-up cost the same in both — the
// largest pool, the device's update records, is sized by the 5 ms EntryTTL,
// not by the run — so the difference is N requests of steady state: one
// allocation each, the encoded payload.
func TestUpdatePathAllocsPerRequest(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are unreliable under the race detector")
	}
	mallocs := func(perClient int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 64,
			Requests: perClient, Warmup: 100, ValueSize: 1000, UpdateRatio: 1, Seed: 1})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(64 * (perClient + 100)); res.Driver.Completed != want || res.Driver.Failed != 0 {
			t.Fatalf("run incomplete: %+v, want %d completed", res.Driver, want)
		}
		return m1.Mallocs - m0.Mallocs
	}
	const perClient = 400 // 32 000 requests, ≈ 28 ms of virtual time: several TTL periods
	n := float64(64 * perClient)
	got := (float64(mallocs(2*perClient)) - float64(mallocs(perClient))) / n
	t.Logf("%.4f objects per request", got)
	if got > 1.1 || got < 0.9 {
		t.Errorf("update path allocates %.3f objects per request in steady state, want 1 (≤ 1.1)", got)
	}
}

// TestReadPathAllocsPerRequest does the same for the store and read path, on
// bench/'s kv_mixed shape at small size: 16 clients, zipfian reads beside
// writes on a B-tree behind the read cache. Prefill and warm-up are the same
// at N and 2N; what is left per request is its payload, a read's response
// payload and the copy of the value Engine.Get hands out, and the response a
// cache hit sends, encoded once per value an update installed — the engine's
// descent, its transaction, the response's argument arrays and the cache's
// entries and their key buffers are all reused (1.377 measured).
func TestReadPathAllocsPerRequest(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are unreliable under the race detector")
	}
	const clients = 16
	mallocs := func(perClient int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(RunConfig{Design: pmnet.PMNetSwitch, Workload: WLBTree, Clients: clients,
			Requests: perClient, Warmup: 100, ValueSize: 100, UpdateRatio: 0.5, Zipfian: true,
			CacheSize: 512, Keys: 20000, Seed: 1})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(clients * (perClient + 100)); res.Driver.Completed != want || res.Driver.Failed != 0 {
			t.Fatalf("run incomplete: %+v, want %d completed", res.Driver, want)
		}
		if c := res.Bed.Devices[0].Stats().Cache; c.Hits == 0 || c.Evictions == 0 {
			t.Fatalf("read cache not exercised: %+v", c)
		}
		return m1.Mallocs - m0.Mallocs
	}
	const perClient = 1500
	n := float64(clients * perClient)
	got := (float64(mallocs(2*perClient)) - float64(mallocs(perClient))) / n
	t.Logf("%.4f objects per request", got)
	if got > 1.48 {
		t.Errorf("store and read path allocates %.3f objects per request in steady state, want <= 1.48", got)
	}
}

// TestRetwisPathAllocsPerRequest does the same for the open loop and the
// Redis-like store, on bench/'s retwis_open shape at small size: Poisson
// retwis actions over 16 transports, below the knee. Two durations of one
// arrival stream differ by the requests of the second half; what is left per
// request is its payload and, for the reads (LRANGE and two GETs of a
// timeline action), the response payload — the mix formats keys into the
// action's own ops, the store splices values from the PM view into its one
// buffer, and actions, sessions and steppers are pooled.
func TestRetwisPathAllocsPerRequest(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are unreliable under the race detector")
	}
	run := func(d sim.Time) (mallocs, requests uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(RunConfig{Design: pmnet.PMNetSwitch, Workload: WLTwitter, Clients: 16,
			OfferedLoad: 150000, Duration: d, WarmupDur: sim.Millisecond, Users: 1000000,
			UpdateRatio: 0.4, RetryBackoff: true, ValueSize: 100, Seed: 1})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if o := res.Open; o.Shed != 0 || o.FailedReqs != 0 || o.ActionsFailed != 0 || o.Actions != o.Offered {
			t.Fatalf("run not clean: %+v", o.Stats)
		}
		return m1.Mallocs - m0.Mallocs, res.Open.Requests
	}
	m1, r1 := run(40 * sim.Millisecond)
	m2, r2 := run(80 * sim.Millisecond)
	if r2-r1 < 15000 {
		t.Fatalf("second half played %d requests, want 15 000 or more", r2-r1)
	}
	got := float64(m2-m1) / float64(r2-r1)
	t.Logf("%.4f objects per request over %d requests", got, r2-r1)
	if got > 2.0 {
		t.Errorf("retwis path allocates %.3f objects per request in steady state, want <= 2.0", got)
	}
}
