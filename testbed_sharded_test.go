package pmnet

import (
	"fmt"
	"reflect"
	"testing"

	"pmnet/internal/netsim"
	"pmnet/internal/sim"
)

// grantAll is a WorkerBudget that always grants the full request — it forces
// the runner onto the multi-worker path regardless of GOMAXPROCS, so the
// identity tests below exercise real barrier concurrency even on 1-CPU CI.
type grantAll struct{ granted int }

func (g *grantAll) Acquire(want int) int { g.granted += want; return want }
func (g *grantAll) Release(n int)        {}

// runShardedUpdates drives n synchronous updates on every session of a
// sharded testbed and returns per-session latency slices plus the run's
// observables.
func runShardedUpdates(t *testing.T, cfg Config, n int) (lats [][]Time, events uint64, now Time) {
	t.Helper()
	tb := NewTestbed(cfg)
	if tb.Shards() != cfg.Shards {
		t.Fatalf("%d engines for Shards=%d (%d partitions)", tb.Shards(), cfg.Shards, tb.Partitions())
	}
	lats = make([][]Time, cfg.Clients)
	val := make([]byte, 100)
	for i := range lats {
		i := i
		var issue func(k int)
		issue = func(k int) {
			if k >= n {
				return
			}
			key := []byte(fmt.Sprintf("key-%d-%d", i, k))
			tb.Session(i).SendUpdate(PutReq(key, val), func(r Result) {
				if r.Err == nil {
					lats[i] = append(lats[i], r.Latency)
				}
				issue(k + 1)
			})
		}
		issue(0)
	}
	tb.Run()
	return lats, tb.EventsRun(), tb.Now()
}

// TestShardedForcedMultiWorker: granting the runner a full worker complement
// must not change a single observable versus the default 1-worker budget-less
// run. This is the §10.4 determinism contract at the worker axis (the shard
// axis is covered by the harness's TestShardedByteIdentical), and it runs the
// multi-worker barrier path even when GOMAXPROCS would normally clamp the
// runner to one worker.
func TestShardedForcedMultiWorker(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		base := Config{Design: PMNetSwitch, Clients: 8, Replication: 2, Seed: 9, Shards: shards}
		forced := base
		g := &grantAll{}
		forced.WorkerBudget = g

		wantLats, wantEvents, wantNow := runShardedUpdates(t, base, 20)
		gotLats, gotEvents, gotNow := runShardedUpdates(t, forced, 20)

		if g.granted == 0 {
			t.Fatalf("shards=%d: forced budget was never consulted", shards)
		}
		if !reflect.DeepEqual(gotLats, wantLats) {
			t.Errorf("shards=%d: latencies diverge under forced workers", shards)
		}
		if gotEvents != wantEvents {
			t.Errorf("shards=%d: events %d != %d", shards, gotEvents, wantEvents)
		}
		if gotNow != wantNow {
			t.Errorf("shards=%d: virtual end %d != %d", shards, gotNow, wantNow)
		}
	}
}

// planFor plans cfg's cluster the way NewTestbed does.
func planFor(cfg Config) netsim.Plan {
	link := cfg.applyDefaults()
	return describeCluster(&cfg, link).plan(&cfg)
}

// TestPlanTopologyShardInvariant: every Shards ≥ 1 gets the same plan — it
// must be a function of the cluster alone, or `-shards 1` and `-shards N`
// would see different event interleavings — while Shards == 0, and any
// cluster with cross-traffic, is exactly one partition.
func TestPlanTopologyShardInvariant(t *testing.T) {
	cfg := Config{Design: PMNetSwitch, Clients: 8, Replication: 3, Seed: 1, Shards: 1}
	want := planFor(cfg)
	if want.NParts < 2 {
		t.Fatalf("Shards=1 planned %d partitions, want several", want.NParts)
	}
	for _, sh := range []int{2, 4, 12} {
		c := cfg
		c.Shards = sh
		if got := planFor(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan changed with Shards=%d", sh)
		}
	}
	for _, sh := range []int{0, 1, 4} {
		c := cfg
		c.Shards = sh
		if sh > 0 {
			c.CrossTrafficGbps = 1
		}
		p := planFor(c)
		if p.NParts != 1 || p.Lookahead != 0 {
			t.Errorf("Shards=%d cross=%v: %d partitions, lookahead %d; want one partition, nothing cut",
				sh, c.CrossTrafficGbps, p.NParts, p.Lookahead)
		}
		if got, want := len(p.Part), len(describeCluster(&c, c.applyDefaults()).nodes); got != want {
			t.Errorf("Shards=%d: plan places %d of %d nodes", sh, got, want)
		}
	}
}

// TestPlanTopologyStructure checks the planner's cuts on the real testbed
// topologies: low-latency chain patches and NIC hops merge, full-latency
// edge links are cut (maximizing lookahead), and servers co-locate.
func TestPlanTopologyStructure(t *testing.T) {
	// DefaultLink edge latency: 600 ns propagation + 46-byte UDP overhead
	// serialized at 10 Gb/s.
	link := netsim.DefaultLink()
	edgeLat := link.PropDelay + sim.Time(float64(netsim.UDPOverhead*8)/link.Bandwidth*1e9)

	t.Run("switch-chain", func(t *testing.T) {
		p := planFor(Config{Design: PMNetSwitch, Clients: 6, Replication: 3, Shards: 1})
		if p.Lookahead != edgeLat {
			t.Errorf("lookahead %d, want edge-link latency %d", p.Lookahead, edgeLat)
		}
		// The 200 ns chain patches merge the devices into one partition,
		// separate from the ToR.
		d0 := p.Part[devBase]
		for i := 1; i < 3; i++ {
			if p.Part[devBase+netsim.NodeID(i)] != d0 {
				t.Errorf("device %d split from chain partition", i)
			}
		}
		if p.Part[torID] == d0 {
			t.Error("ToR merged into the device chain")
		}
		if p.NParts > maxPartitions {
			t.Errorf("%d partitions exceed the %d cap", p.NParts, maxPartitions)
		}
	})

	t.Run("nic", func(t *testing.T) {
		p := planFor(Config{Design: PMNetNIC, Clients: 4, Shards: 1})
		// The 100 ns bump-in-the-wire hop merges the NIC device with the
		// server; the client edge links are the cut.
		if p.Part[devBase] != p.Part[serverID] {
			t.Error("NIC device split from its server")
		}
		if p.Lookahead != edgeLat {
			t.Errorf("lookahead %d, want edge-link latency %d", p.Lookahead, edgeLat)
		}
	})

	t.Run("multi-server", func(t *testing.T) {
		p := planFor(Config{Design: PMNetSwitch, Clients: 4, Servers: 3, Shards: 1})
		s0 := p.Part[serverID]
		for i := 1; i < 3; i++ {
			if p.Part[serverID+netsim.NodeID(i)] != s0 {
				t.Errorf("server %d split from the rack partition", i)
			}
		}
	})
}

// TestShardedPartitionCounters: the registry exposes the plan's partition
// count, and epochs/events-per-epoch are populated after a run.
func TestShardedPartitionCounters(t *testing.T) {
	cfg := Config{Design: PMNetSwitch, Clients: 6, Seed: 3, Shards: 4}
	tb := NewTestbed(cfg)
	runShardedUpdatesOn(t, tb, 10)
	counters := map[string]uint64{}
	for _, s := range tb.Counters().Snapshot() {
		counters[s.Name] = s.Value
	}
	if counters["sim.partitions"] == 0 {
		t.Error("sim.partitions not exported")
	}
	if counters["sim.epochs"] == 0 {
		t.Error("sim.epochs zero after a sharded run")
	}
	if counters["sim.events_per_epoch"] == 0 {
		t.Error("sim.events_per_epoch zero after a sharded run")
	}
	if perf := tb.RunnerPerf(); perf.Epochs != counters["sim.epochs"] {
		t.Errorf("RunnerPerf epochs %d != counter %d", perf.Epochs, counters["sim.epochs"])
	}
}

// runShardedUpdatesOn drives updates on an already-built testbed.
func runShardedUpdatesOn(t *testing.T, tb *Testbed, n int) {
	t.Helper()
	val := make([]byte, 100)
	for i := range tb.Sessions {
		i := i
		var issue func(k int)
		issue = func(k int) {
			if k >= n {
				return
			}
			key := []byte(fmt.Sprintf("key-%d-%d", i, k))
			tb.Session(i).SendUpdate(PutReq(key, val), func(r Result) { issue(k + 1) })
		}
		issue(0)
	}
	tb.Run()
}
