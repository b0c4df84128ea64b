package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmnet"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// shardProbe runs one config at a given shard count and captures everything
// observable: measurement window, histogram, driver accounting, event count,
// counter snapshot, and the serialized trace.
type shardProbe struct {
	run      string
	driver   string
	events   uint64
	virtual  int64
	counters []trace.Snapshot
	chrome   []byte
}

func probeShards(t *testing.T, cfg RunConfig, shards int) shardProbe {
	t.Helper()
	cfg.Shards = shards
	cfg.Trace = trace.NewTracer(1 << 16)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return shardProbe{
		run: fmt.Sprintf("%s start=%d end=%d n=%d",
			res.Run.Hist.String(), res.Run.Start, res.Run.End, res.Run.Requests),
		driver:   fmt.Sprintf("%+v", res.Driver),
		events:   res.Bed.EventsRun(),
		virtual:  int64(res.Bed.Now()),
		counters: res.Bed.Counters().Snapshot(),
		chrome:   cfg.Trace.ChromeJSON(res.Bed.NodeName),
	}
}

// diff reports every observable of got that differs from base.
func (base shardProbe) diff(t *testing.T, label string, got shardProbe) {
	t.Helper()
	if got.run != base.run {
		t.Errorf("%s: hist %q != %q", label, got.run, base.run)
	}
	if got.driver != base.driver {
		t.Errorf("%s: driver %s != %s", label, got.driver, base.driver)
	}
	if got.events != base.events {
		t.Errorf("%s: events %d != %d", label, got.events, base.events)
	}
	if got.virtual != base.virtual {
		t.Errorf("%s: virtual end %d != %d", label, got.virtual, base.virtual)
	}
	if !reflect.DeepEqual(got.counters, base.counters) {
		t.Errorf("%s: counter snapshots differ", label)
	}
	if !bytes.Equal(got.chrome, base.chrome) {
		t.Errorf("%s: trace bytes differ (%d vs %d bytes)", label, len(got.chrome), len(base.chrome))
	}
}

// TestShardedByteIdentical is the determinism contract of DESIGN.md §10.4:
// every observable of a sharded run — stats, counters, trace bytes — is
// identical at -shards 1 and -shards N.
func TestShardedByteIdentical(t *testing.T) {
	for _, cfg := range []RunConfig{
		{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 12, Requests: 40, Warmup: 5, Seed: 7},
		{Design: pmnet.PMNetSwitch, Workload: WLHashmap, Clients: 6, Requests: 30, Seed: 3, Replication: 3, UpdateRatio: 0.5},
		{Design: pmnet.PMNetNIC, Workload: WLIdeal, Clients: 9, Requests: 25, Seed: 11},
		{Design: pmnet.ClientServer, Workload: WLIdeal, Clients: 5, Requests: 20, Seed: 5},
	} {
		base := probeShards(t, cfg, 1)
		for _, n := range []int{2, 4, 7} {
			base.diff(t, fmt.Sprintf("%s shards=%d", cfg.Design, n), probeShards(t, cfg, n))
		}
	}
}

// TestSpeedupRowsAgree: the speedup experiment is one scenario at shards 1, 2
// and 4, and its renderer marks a row whose events or epochs left the first
// row's with MISMATCH instead of failing — so here is where that fails.
func TestSpeedupRowsAgree(t *testing.T) {
	res := RunSpec(Specs["speedup"], 1, 1)
	if text := res.Text(); strings.Contains(text, "MISMATCH") {
		t.Fatalf("shard counts diverged:\n%s", text)
	}
	for _, sh := range speedupShards {
		ev, ep := res.Metrics[fmt.Sprintf("events_%d", sh)], res.Metrics[fmt.Sprintf("epochs_%d", sh)]
		if ev == 0 || ep == 0 {
			t.Errorf("shards=%d: %v events over %v epochs", sh, ev, ep)
		}
	}
}

// TestCrossTrafficShardInvariant: cross-traffic is part of the one cluster
// description, not a second builder — the noise host pins the plan to one
// partition, so the run is the same at the default and at every shard count.
func TestCrossTrafficShardInvariant(t *testing.T) {
	cfg := RunConfig{Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 6,
		Requests: 40, Warmup: 5, Seed: 7, CrossTrafficGbps: 1}
	base := probeShards(t, cfg, 0)
	if base.events == 0 {
		t.Fatal("no events ran")
	}
	for _, n := range []int{1, 4} {
		base.diff(t, fmt.Sprintf("cross-traffic shards=%d", n), probeShards(t, cfg, n))
	}
}

// TestCrossTrafficRunsTerminate: the background generator reschedules itself
// forever, so a run with cross-traffic drains only if the harness stops it
// when the workload is done — in the closed loop and in the open loop.
func TestCrossTrafficRunsTerminate(t *testing.T) {
	for name, cfg := range map[string]RunConfig{
		"closed": {Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 2, Requests: 20,
			Seed: 1, CrossTrafficGbps: 1},
		"open": {Design: pmnet.PMNetSwitch, Workload: WLTwitter, Clients: 2, OfferedLoad: 20000,
			Duration: 2 * sim.Millisecond, Seed: 1, CrossTrafficGbps: 1},
	} {
		cfg := cfg
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s loop: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s loop with cross-traffic never drained", name)
		}
	}
}
