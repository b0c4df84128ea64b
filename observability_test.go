package pmnet_test

// End-to-end tests of the observability layer: the golden trace (the exact
// chrome://tracing bytes of a small fixed scenario), byte-determinism across
// concurrently executing identical runs (the harness's -parallel contract,
// also exercised under -race by `make race`), and the stability of the
// unified counters registry.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pmnet"
	"pmnet/internal/harness"
	"pmnet/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// smokeConfig is the `pmnetsim -workload ideal -clients 1 -requests 5 -seed 7`
// scenario, whose -trace file is testdata/trace_smoke.json byte for byte.
func smokeConfig() harness.RunConfig {
	return harness.RunConfig{
		Design:      pmnet.PMNetSwitch,
		Workload:    harness.WLIdeal,
		Clients:     1,
		Requests:    5,
		UpdateRatio: 1.0,
		Seed:        7,
	}
}

// tracedRun executes cfg with a fresh tracer and returns the chrome JSON.
func tracedRun(t *testing.T, cfg harness.RunConfig) []byte {
	t.Helper()
	tr := trace.NewTracer(0)
	cfg.Trace = tr
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring overflow: %d records dropped", tr.Dropped())
	}
	return tr.ChromeJSON(res.Bed.NodeName)
}

func TestTraceGoldenSmoke(t *testing.T) {
	got := tracedRun(t, smokeConfig())
	golden := filepath.Join("testdata", "trace_smoke.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestTraceGoldenSmoke -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden (%d vs %d bytes): the event stream "+
			"or its encoding changed; inspect with `pmnetsim -trace`, then "+
			"regenerate via `go test -run TestTraceGoldenSmoke -update`",
			len(got), len(want))
	}
}

// TestTraceByteIdenticalAcrossGoroutines runs several identical traced
// simulations on concurrent goroutines — the way the harness worker pool
// executes cells — and requires byte-identical traces. Loss and a mid-run
// crash are enabled so the nondeterminism-prone paths (drops, resends,
// recovery) are all in the stream. Under -race this doubles as the proof
// that tracing introduces no cross-testbed sharing.
func TestTraceByteIdenticalAcrossGoroutines(t *testing.T) {
	const copies = 4
	runOnce := func() []byte {
		tr := trace.NewTracer(0)
		res, err := harness.Run(harness.RunConfig{
			Design:      pmnet.PMNetSwitch,
			Workload:    harness.WLIdeal,
			Clients:     3,
			Requests:    40,
			UpdateRatio: 1.0,
			Seed:        11,
			Trace:       tr,
		})
		if err != nil {
			t.Error(err)
			return nil
		}
		return tr.ChromeJSON(res.Bed.NodeName)
	}
	outs := make([][]byte, copies)
	var wg sync.WaitGroup
	for i := 0; i < copies; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = runOnce()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < copies; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("copy %d trace differs from copy 0 (%d vs %d bytes)",
				i, len(outs[i]), len(outs[0]))
		}
	}
	if len(outs[0]) == 0 {
		t.Fatal("empty trace")
	}
}

// TestCountersDeterministicAndComplete pins the unified registry: two
// identical runs snapshot to identical counter sets, the names cover every
// layer, and the values agree with the layer stats they absorb.
func TestCountersDeterministicAndComplete(t *testing.T) {
	run := func() ([]trace.Snapshot, *harness.RunResult) {
		res, err := harness.Run(smokeConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Bed.Counters().Snapshot(), res
	}
	snap1, res := run()
	snap2, _ := run()
	if len(snap1) != len(snap2) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(snap1), len(snap2))
	}
	for i := range snap1 {
		if snap1[i] != snap2[i] {
			t.Fatalf("counter %d differs across identical runs: %+v vs %+v",
				i, snap1[i], snap2[i])
		}
	}
	byName := make(map[string]uint64, len(snap1))
	for _, s := range snap1 {
		byName[s.Name] = s.Value
	}
	for _, name := range []string{
		"engine.events", "net.delivered", "client.completed",
		"server.updates_applied", "dev0.log.logged", "dev0.pm.persists",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	if got, want := byName["client.completed"], res.Bed.Session(0).Stats().Completed; got != want {
		t.Errorf("client.completed=%d, session stats say %d", got, want)
	}
	if got, want := byName["engine.events"], res.Bed.EventsRun(); got != want {
		t.Errorf("engine.events=%d, testbed says %d", got, want)
	}
	if byName["dev0.log.live"] != 0 {
		t.Errorf("dev0.log.live=%d after quiescence, want 0", byName["dev0.log.live"])
	}
}
