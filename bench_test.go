package pmnet_test

// One benchmark per table/figure of the paper's evaluation (§VI), plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the
// substrates. The figure benches run a scaled-down instance per iteration
// and report the headline comparison metric the paper quotes (speedups,
// shares, overheads) via b.ReportMetric; `go run ./cmd/pmnetbench` runs the
// full-size experiments.

import (
	"fmt"
	"testing"

	"pmnet"
	"pmnet/internal/dataplane"
	"pmnet/internal/harness"
	"pmnet/internal/kv"
	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// --- Figure benches --------------------------------------------------------

func BenchmarkFig2Breakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res := harness.RunSpec(harness.Specs["fig2"], uint64(i+1), 1)
		share = res.Metrics["server_share"]
	}
	b.ReportMetric(share*100, "server-side-%")
}

func benchLatencyPair(b *testing.B, payload int, design pmnet.Design) float64 {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := runIdeal(b, pmnet.ClientServer, payload, uint64(i+1), 1, 1)
		pm := runIdeal(b, design, payload, uint64(i+1), 1, 1)
		speedup = base / pm
	}
	return speedup
}

func runIdeal(b *testing.B, design pmnet.Design, payload int, seed uint64, clients, repl int) float64 {
	b.Helper()
	res, err := harness.Run(harness.RunConfig{
		Design: design, Workload: harness.WLIdeal, Clients: clients,
		Requests: 200, Warmup: 20, ValueSize: payload, UpdateRatio: 1,
		Replication: repl, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.Run.Hist.Mean())
}

func BenchmarkFig15Payload50B(b *testing.B) {
	s := benchLatencyPair(b, 50, pmnet.PMNetSwitch)
	b.ReportMetric(s, "speedup(paper:2.83)")
}

func BenchmarkFig15Payload1000B(b *testing.B) {
	s := benchLatencyPair(b, 1000, pmnet.PMNetSwitch)
	b.ReportMetric(s, "speedup(paper:2.19)")
}

func BenchmarkFig15NIC50B(b *testing.B) {
	s := benchLatencyPair(b, 50, pmnet.PMNetNIC)
	b.ReportMetric(s, "speedup(paper:2.90)")
}

func BenchmarkFig16Saturation(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.RunConfig{
			Design: pmnet.PMNetSwitch, Workload: harness.WLIdeal,
			Clients: 64, Requests: 120, Warmup: 10, ValueSize: 1000,
			UpdateRatio: 1, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		gbps = res.Run.Throughput() * float64((1000+62)*8) / 1e9
	}
	b.ReportMetric(gbps, "Gbps(line-rate:10)")
}

// benchShardedSaturation runs a Fig16-class saturation scenario (wide client
// fan-in, all-update, 1 kB payloads) on the conservative-PDES path at the
// given shard count. The scenario output is byte-identical at every shard
// count — the benchmark measures wall clock only, and ns/op across the
// Sharded* variants is the PDES scaling curve (cmd/benchdiff prints the
// speedup from the committed BENCH artifacts).
func benchShardedSaturation(b *testing.B, shards int) {
	b.Helper()
	var gbps float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.RunConfig{
			Design: pmnet.PMNetSwitch, Workload: harness.WLIdeal,
			Clients: 128, Requests: 150, Warmup: 10, ValueSize: 1000,
			UpdateRatio: 1, Seed: uint64(i + 1), Shards: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		gbps = res.Run.Throughput() * float64((1000+62)*8) / 1e9
	}
	b.ReportMetric(gbps, "Gbps(line-rate:10)")
}

func BenchmarkShardedSaturation1(b *testing.B) { benchShardedSaturation(b, 1) }
func BenchmarkShardedSaturation2(b *testing.B) { benchShardedSaturation(b, 2) }
func BenchmarkShardedSaturation4(b *testing.B) { benchShardedSaturation(b, 4) }

func BenchmarkFig18AltDesigns(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = harness.RunSpec(harness.Specs["fig18"], uint64(i+1), 1).Metrics
	}
	b.ReportMetric(m["pmnet_us"], "pmnet-us(paper:21.5)")
	b.ReportMetric(m["server_us"], "serverlog-us(paper:47.97)")
	b.ReportMetric(m["client_us"], "clientlog-us(paper:10.4)")
}

func benchFig19Workload(b *testing.B, wl harness.Workload, ratio float64) {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		base, err := harness.Run(harness.RunConfig{Design: pmnet.ClientServer,
			Workload: wl, Clients: 4, Requests: 80, Warmup: 10,
			UpdateRatio: ratio, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		pm, err := harness.Run(harness.RunConfig{Design: pmnet.PMNetSwitch,
			Workload: wl, Clients: 4, Requests: 80, Warmup: 10,
			UpdateRatio: ratio, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		speedup = pm.Run.Throughput() / base.Run.Throughput()
	}
	b.ReportMetric(speedup, "speedup")
}

func BenchmarkFig19(b *testing.B) {
	for _, wl := range harness.AllWorkloads {
		for _, ratio := range []float64{1.0, 0.5} {
			b.Run(fmt.Sprintf("%s/update%d", wl, int(ratio*100)), func(b *testing.B) {
				benchFig19Workload(b, wl, ratio)
			})
		}
	}
}

func BenchmarkFig20Cache(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		des   pmnet.Design
		cache int
	}{
		{"ClientServer", pmnet.ClientServer, 0},
		{"PMNet", pmnet.PMNetSwitch, 0},
		{"PMNetCache", pmnet.PMNetSwitch, 4096},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.RunConfig{
					Design: cfg.des, Workload: harness.WLHashmap, Clients: 4,
					Requests: 150, Warmup: 15, UpdateRatio: 0.5, Zipfian: true,
					CacheSize: cfg.cache, Keys: 1000, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				p99 = float64(res.Run.Hist.Percentile(99)) / 1e3
			}
			b.ReportMetric(p99, "p99-us")
		})
	}
}

func BenchmarkFig21Replication(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = harness.RunSpec(harness.Specs["fig21"], uint64(i+1), 1).Metrics
	}
	b.ReportMetric(m["pmnet_vs_server_repl"], "vs-server-repl(paper:5.88)")
	b.ReportMetric(m["repl_overhead"]*100, "overhead-%(paper:16)")
}

func BenchmarkFig22OptStack(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = harness.RunSpec(harness.Specs["fig22"], uint64(i+1), 1).Metrics
	}
	b.ReportMetric(m["kernel_speedup"], "kernel-speedup(paper:3.08)")
	b.ReportMetric(m["bypass_speedup"], "bypass-speedup(paper:3.56)")
}

func BenchmarkRecovery(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per = harness.RunSpec(harness.Specs["recovery"], uint64(i+1), 1).Metrics["per_request_us"]
	}
	b.ReportMetric(per, "us-per-resend(paper:67)")
}

// --- Ablation benches (DESIGN.md §7) ---------------------------------------

// BenchmarkAblationLogQueue varies the SRAM log-queue size: starving the
// queue forces bypasses (no early ACK), eroding PMNet's benefit.
func BenchmarkAblationLogQueue(b *testing.B) {
	for _, queueBytes := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("queue%dB", queueBytes), func(b *testing.B) {
			var ackRatio float64
			for i := 0; i < b.N; i++ {
				bed := pmnet.NewTestbed(pmnet.Config{
					Design: pmnet.PMNetSwitch, Clients: 8, Seed: uint64(i + 1),
					Device: deviceWithQueue(queueBytes),
				})
				driveUpdates(bed, 8, 100)
				st := bed.Devices[0].Stats()
				total := st.Log.Logged + st.Log.BypassedFull
				if total > 0 {
					ackRatio = float64(st.Log.Logged) / float64(total)
				}
			}
			b.ReportMetric(ackRatio*100, "logged-%")
		})
	}
}

// BenchmarkAblationCollision varies the log-table size: a tiny table makes
// hash collisions bypass logging.
func BenchmarkAblationCollision(b *testing.B) {
	for _, logBytes := range []int{8 << 10, 64 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("log%dKiB", logBytes>>10), func(b *testing.B) {
			var collisions float64
			for i := 0; i < b.N; i++ {
				cfg := deviceWithQueue(4096)
				cfg.LogBytes = logBytes
				bed := pmnet.NewTestbed(pmnet.Config{
					Design: pmnet.PMNetSwitch, Clients: 8, Seed: uint64(i + 1),
					Device: cfg,
					// Slow server ACKs leave entries live longer, exposing
					// collisions.
					Handler: pmnet.IdealHandler{Cost: 20 * sim.Microsecond},
				})
				driveUpdates(bed, 8, 100)
				st := bed.Devices[0].Stats()
				collisions = float64(st.Log.BypassedCollision)
			}
			b.ReportMetric(collisions, "collisions")
		})
	}
}

func BenchmarkAblationReplicationDegree(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = runIdeal(b, pmnet.PMNetSwitch, 100, uint64(i+1), 1, k) / 1e3
			}
			b.ReportMetric(mean, "mean-us")
		})
	}
}

func deviceWithQueue(bytes int) (cfg dataplane.Config) {
	cfg.QueueBytes = bytes
	return
}

func driveUpdates(bed *pmnet.Testbed, clients, perClient int) {
	for c := 0; c < clients; c++ {
		c := c
		var issue func(k int)
		issue = func(k int) {
			if k >= perClient {
				return
			}
			key := []byte(fmt.Sprintf("c%dk%d", c, k))
			bed.Session(c).SendUpdate(pmnet.PutReq(key, make([]byte, 100)),
				func(pmnet.Result) { issue(k + 1) })
		}
		issue(0)
	}
	bed.Run()
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkEnginePut(b *testing.B) {
	for _, name := range kv.EngineNames {
		b.Run(name, func(b *testing.B) {
			arena := kv.NewArena(256 << 20)
			e, err := kv.Factories[name](arena)
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("key%09d", i%100000))
				if err := e.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineGet(b *testing.B) {
	for _, name := range kv.EngineNames {
		b.Run(name, func(b *testing.B) {
			arena := kv.NewArena(64 << 20)
			e, err := kv.Factories[name](arena)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10000; i++ {
				_ = e.Put([]byte(fmt.Sprintf("key%09d", i)), make([]byte, 100))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Get([]byte(fmt.Sprintf("key%09d", i%10000))); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkProtocolHeaderRoundTrip(b *testing.B) {
	h := protocol.Header{Type: protocol.TypeUpdateReq, SessionID: 7, SeqNum: 42, FragTotal: 1}
	h.Seal()
	wire := h.Encode(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := protocol.DecodeHeader(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

func BenchmarkEndToEndUpdate(b *testing.B) {
	// Virtual-time cost of one full PMNet update round trip, including the
	// simulator overhead — the "how fast is the simulation" number.
	bed := pmnet.NewTestbed(pmnet.Config{Design: pmnet.PMNetSwitch, Seed: 1})
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		bed.Session(0).SendUpdate(pmnet.PutReq([]byte("bench"), val),
			func(pmnet.Result) { done = true })
		bed.Run()
		if !done {
			b.Fatal("request incomplete")
		}
	}
}

// BenchmarkAblationCacheSize varies the read-cache capacity under a zipfian
// read-heavy mix: hit rate (and hence read latency) improves with capacity
// until the working set fits.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, entries := range []int{0, 64, 1024, 8192} {
		b.Run(fmt.Sprintf("entries%d", entries), func(b *testing.B) {
			var readP50 float64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.RunConfig{
					Design: pmnet.PMNetSwitch, Workload: harness.WLHashmap,
					Clients: 4, Requests: 150, Warmup: 15, UpdateRatio: 0.25,
					Zipfian: true, CacheSize: entries, Keys: 2000, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				readP50 = float64(res.Run.Hist.Percentile(50)) / 1e3
			}
			b.ReportMetric(readP50, "p50-us")
		})
	}
}

// BenchmarkAblationExternalPM models the §VII alternative of keeping the
// log on network-attached PM instead of on-board: every log persist pays an
// extra network round trip before the PMNet-ACK can leave, inflating the
// critical path exactly as the paper argues.
func BenchmarkAblationExternalPM(b *testing.B) {
	for _, extra := range []sim.Time{0, 2 * sim.Microsecond, 10 * sim.Microsecond} {
		b.Run(fmt.Sprintf("extra%dus", extra/sim.Microsecond), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				dev := deviceWithQueue(4096)
				pmCfg := pmem.DefaultConfig(32 << 20)
				pmCfg.WriteLatency += extra // network hop to the external PM
				dev.PM = pmCfg
				bed := pmnet.NewTestbed(pmnet.Config{
					Design: pmnet.PMNetSwitch, Seed: uint64(i + 1), Device: dev,
				})
				var sum sim.Time
				n := 0
				var issue func(k int)
				issue = func(k int) {
					if k >= 150 {
						return
					}
					bed.Session(0).SendUpdate(pmnet.PutReq([]byte(fmt.Sprintf("k%d", k)), make([]byte, 100)),
						func(r pmnet.Result) {
							sum += r.Latency
							n++
							issue(k + 1)
						})
				}
				issue(0)
				bed.Run()
				mean = float64(sum) / float64(n) / 1e3
			}
			b.ReportMetric(mean, "mean-us")
		})
	}
}
