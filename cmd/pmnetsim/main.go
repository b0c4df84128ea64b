// Command pmnetsim runs one interactive PMNet scenario: build a testbed,
// drive a workload, and dump the resulting latency distribution and
// component statistics. (Server failure and recovery are the "recovery"
// experiment of pmnetbench and examples/recovery, not a flag here.)
//
// Usage:
//
//	pmnetsim [-design client-server|pmnet-switch|pmnet-nic] [-workload btree|...|ideal]
//	         [-clients N] [-requests N] [-update-ratio F] [-replication K]
//	         [-cache N] [-bypass-stack] [-seed N]
//	         [-offered-load RPS] [-duration MS] [-users N]
//	         [-arrival poisson|mmpp|diurnal|flash] [-backoff]
//	         [-trace out.json] [-parallel N] [-shards N]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -offered-load > 0 the run is open-loop: arrivals follow the selected
// -arrival process at the offered rate for -duration virtual milliseconds,
// multiplexed over -users logical user sessions (live state stays bounded by
// the admission cap regardless of -users; excess arrivals are shed, never
// queued). -requests is ignored in this mode. -backoff enables capped
// exponential client retransmission backoff.
//
// With -trace, the run records every request-lifecycle event and gauge sample
// on the virtual clock and writes a chrome://tracing (Perfetto-loadable) JSON
// file. With -parallel N > 1, N identical copies of the run execute on
// concurrent goroutines and their trace outputs are byte-compared before one
// is written — a built-in determinism check: the trace is a pure function of
// the configuration, never of host scheduling. With -shards N, the testbed's
// cluster is cut into topology partitions driven by N engine shards
// (internal/sim/pdes); the trace bytes and every number printed are identical
// for every N ≥ 1, and the last line reports the engine and partition counts.
// The default, -shards 0, is one partition on one engine.
// -cpuprofile/-memprofile write runtime/pprof profiles of the run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync"

	"pmnet"
	"pmnet/internal/arrival"
	"pmnet/internal/harness"
	"pmnet/internal/netsim"
	"pmnet/internal/prof"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

func main() {
	design := flag.String("design", "pmnet-switch", "client-server | pmnet-switch | pmnet-nic")
	wl := flag.String("workload", "hashmap", "btree|ctree|rbtree|hashmap|skiplist|redis|twitter|tpcc|ideal")
	clients := flag.Int("clients", 4, "client machines")
	requests := flag.Int("requests", 500, "requests per client")
	updateRatio := flag.Float64("update-ratio", 1.0, "fraction of update requests")
	replication := flag.Int("replication", 1, "PMNet devices chained for replication")
	cache := flag.Int("cache", 0, "in-network read cache entries (0 = off)")
	bypass := flag.Bool("bypass-stack", false, "use libVMA-style kernel-bypass host stacks")
	zipf := flag.Bool("zipf", false, "zipfian key popularity")
	cross := flag.Float64("cross-traffic", 0, "background traffic toward the server (Gbps)")
	offered := flag.Float64("offered-load", 0, "open-loop offered load in user actions/s (0 = closed-loop -requests mode)")
	duration := flag.Float64("duration", 0, "open-loop run length in virtual milliseconds (0 = harness default)")
	users := flag.Int("users", 0, "open-loop logical user population (0 = harness default)")
	arrivalKind := flag.String("arrival", "poisson", "open-loop arrival process: poisson | mmpp | diurnal | flash")
	arrivalTrace := flag.String("arrival-trace", "", "replay recorded open-loop arrivals from this file (one ns timestamp per line; excludes -offered-load)")
	backoff := flag.Bool("backoff", false, "capped exponential client retransmission backoff")
	topo := flag.String("topo", "star", "client fabric: star | leaf-spine | fat-tree")
	leaves := flag.Int("leaves", 0, "leaf-spine leaf count (0 = default 2)")
	spines := flag.Int("spines", 0, "leaf-spine spine count (0 = default 2)")
	oversub := flag.Float64("oversub", 0, "leaf-spine oversubscription ratio (0 = full bisection)")
	fatTreeK := flag.Int("fattree-k", 0, "fat-tree arity (even; 0 = default 4)")
	impLoss := flag.Float64("impair-loss", 0, "access-link loss probability in the good state [0,1]")
	impBurstLoss := flag.Float64("impair-burst-loss", 0, "loss probability in the Gilbert-Elliott bad state [0,1]")
	impBurstOn := flag.Float64("impair-burst-on", 0, "P(good->bad) per packet [0,1]")
	impBurstOff := flag.Float64("impair-burst-off", 0, "P(bad->good) per packet [0,1]")
	impJitter := flag.Float64("impair-jitter-us", 0, "lognormal access-link jitter median (us)")
	impJitterSigma := flag.Float64("impair-jitter-sigma", 0, "jitter lognormal shape")
	impReorder := flag.Float64("impair-reorder", 0, "reordering probability [0,1)")
	impReorderWin := flag.Float64("impair-reorder-window-us", 0, "reorder hold-back window (us)")
	impDup := flag.Float64("impair-dup", 0, "duplication probability [0,1)")
	impRate := flag.Float64("impair-rate-gbps", 0, "token-bucket access-link rate cap (Gbps, 0 = off)")
	impBurstKB := flag.Int("impair-burst-kb", 0, "token-bucket burst (KB, 0 = 64)")
	impAckOnly := flag.Bool("impair-ack-only", false, "impair only the edge->client (ACK) direction")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceFile := flag.String("trace", "", "write a chrome://tracing JSON of the run to this file")
	par := flag.Int("parallel", 1, "run N identical copies concurrently and byte-compare their traces")
	shards := flag.Int("shards", 0, "partition the testbed across N engine shards (output identical for every N >= 1; 0 = one partition, one engine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	var d pmnet.Design
	switch *design {
	case "client-server":
		d = pmnet.ClientServer
	case "pmnet-switch":
		d = pmnet.PMNetSwitch
	case "pmnet-nic":
		d = pmnet.PMNetNIC
	default:
		fmt.Fprintf(os.Stderr, "pmnetsim: unknown design %q\n", *design)
		os.Exit(2)
	}
	stacks := pmnet.KernelStack
	if *bypass {
		stacks = pmnet.BypassStack
	}

	cfg := harness.RunConfig{
		Design:           d,
		Workload:         harness.Workload(*wl),
		Clients:          *clients,
		Requests:         *requests,
		Warmup:           *requests / 10,
		UpdateRatio:      *updateRatio,
		Replication:      *replication,
		CacheSize:        *cache,
		Stacks:           stacks,
		Zipfian:          *zipf,
		CrossTrafficGbps: *cross,
		Seed:             *seed,
		Shards:           *shards,
		RetryBackoff:     *backoff,
		Topology:         *topo,
		Leaves:           *leaves,
		Spines:           *spines,
		Oversub:          *oversub,
		FatTreeK:         *fatTreeK,
		ImpairAckPath:    *impAckOnly,
		Impair: netsim.Impairments{
			GoodLoss:      *impLoss,
			BadLoss:       *impBurstLoss,
			GoodToBad:     *impBurstOn,
			BadToGood:     *impBurstOff,
			JitterMedian:  sim.Time(*impJitter * float64(sim.Microsecond)),
			JitterSigma:   *impJitterSigma,
			ReorderProb:   *impReorder,
			ReorderWindow: sim.Time(*impReorderWin * float64(sim.Microsecond)),
			DupProb:       *impDup,
			RateBps:       *impRate * 1e9,
			BurstBytes:    *impBurstKB << 10,
		},
	}
	if err := cfg.Impair.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", err)
		os.Exit(2)
	}
	if *offered > 0 && *arrivalTrace != "" {
		fmt.Fprintln(os.Stderr, "pmnetsim: -offered-load and -arrival-trace are mutually exclusive")
		os.Exit(2)
	}
	if *offered > 0 {
		kind, err := arrival.ParseKind(*arrivalKind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", err)
			os.Exit(2)
		}
		cfg.OfferedLoad = *offered
		cfg.Duration = sim.Time(*duration * float64(sim.Millisecond))
		cfg.Users = *users
		cfg.Arrival.Kind = kind
	}
	if *arrivalTrace != "" {
		cfg.ArrivalTrace = *arrivalTrace
		cfg.Duration = sim.Time(*duration * float64(sim.Millisecond))
		cfg.Users = *users
	}
	if *par < 1 {
		*par = 1
	}
	if *par > 1 && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "pmnetsim: -parallel without -trace has nothing to compare")
		os.Exit(2)
	}

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", err)
		os.Exit(1)
	}

	type runOut struct {
		res   *harness.RunResult
		json  []byte
		drops uint64
		err   error
	}
	outs := make([]runOut, *par)
	var wg sync.WaitGroup
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg // identical config; each copy gets its own tracer
			var tr *trace.Tracer
			if *traceFile != "" {
				tr = trace.NewTracer(0)
				c.Trace = tr
			}
			r, err := harness.Run(c)
			if err != nil {
				outs[i].err = err
				return
			}
			outs[i].res = r
			if tr != nil {
				outs[i].json = tr.ChromeJSON(r.Bed.NodeName)
				outs[i].drops = tr.Dropped()
			}
		}()
	}
	wg.Wait()
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", err)
		os.Exit(1)
	}
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", o.err)
			os.Exit(1)
		}
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0].json, outs[i].json) {
			fmt.Fprintf(os.Stderr, "pmnetsim: DETERMINISM VIOLATION: trace of copy %d differs from copy 0 (%d vs %d bytes)\n",
				i, len(outs[i].json), len(outs[0].json))
			os.Exit(1)
		}
	}
	res := outs[0].res
	if *traceFile != "" {
		if err := os.WriteFile(*traceFile, outs[0].json, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pmnetsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace         %s (%d bytes, %d events dropped)\n",
			*traceFile, len(outs[0].json), outs[0].drops)
		if *par > 1 {
			fmt.Printf("determinism   %d concurrent copies produced byte-identical traces\n", *par)
		}
	}

	h := res.Run.Hist
	fmt.Printf("design        %v (%s, %d clients, update ratio %.0f%%)\n",
		d, *wl, *clients, *updateRatio*100)
	fmt.Printf("requests      %d completed (%d updates, %d bypass, %d lock ops, %d lock retries)\n",
		res.Driver.Completed, res.Driver.Updates, res.Driver.Bypasses,
		res.Driver.LockOps, res.Driver.LockRetries)
	if open := res.Open; open != nil {
		if *arrivalTrace != "" {
			fmt.Printf("open-loop     trace replay from %s, %d users\n",
				*arrivalTrace, cfg.Users)
		} else {
			fmt.Printf("open-loop     %s arrivals, %.0f actions/s offered, %d users\n",
				*arrivalKind, *offered, cfg.Users)
		}
		fmt.Printf("admission     offered=%d admitted=%d shed=%d peak-active=%d peak-sessions=%d\n",
			open.Offered, open.Admitted, open.Shed, open.PeakActive, open.PeakSessions)
		fmt.Printf("goodput       %.0f req/s (measured window: %d arrivals, %d completions)\n",
			res.Run.Throughput(), open.MeasuredOff, open.MeasuredDone)
		fmt.Printf("tail spot     p99=%.2f us exact (reservoir of %d/%d samples)\n",
			open.Reservoir.Percentile(99).Micros(), open.Reservoir.Len(), open.Reservoir.Seen())
	} else {
		fmt.Printf("throughput    %.0f req/s\n", res.Run.Throughput())
	}
	fmt.Printf("latency mean  %.2f us\n", h.Mean().Micros())
	for _, p := range []float64{50, 90, 99, 99.9} {
		fmt.Printf("latency p%-4v %.2f us\n", p, h.Percentile(p).Micros())
	}
	if len(res.Bed.Devices) > 0 {
		for i, dev := range res.Bed.Devices {
			st := dev.Stats()
			fmt.Printf("pmnet[%d]      logged=%d acked=%d invalidated=%d bypassed(coll/full/size)=%d/%d/%d",
				i, st.Log.Logged, st.AcksSent, st.Log.Invalidated,
				st.Log.BypassedCollision, st.Log.BypassedFull, st.Log.BypassedOversize)
			if dev.Cache() != nil {
				cs := dev.Cache().Stats()
				fmt.Printf(" cache(hit/miss/fill)=%d/%d/%d", cs.Hits, cs.Misses, cs.Fills)
			}
			fmt.Println()
		}
	}
	srv := res.Bed.Server.Stats()
	fmt.Printf("server        applied=%d reads=%d dup=%d retrans=%d reordered=%d\n",
		srv.UpdatesApplied, srv.ReadsServed, srv.Duplicates, srv.RetransSent, srv.Reordered)
	net := res.Bed.NetworkStats()
	fmt.Printf("network       delivered=%d drops(full/rand/dead/burst)=%d/%d/%d/%d dup=%d\n",
		net.Delivered, net.DroppedFull, net.DroppedRand, net.DroppedDead,
		net.DroppedBurst, net.Duplicated)
	if *shards > 0 {
		fmt.Printf("sharding      %d shards over %d partitions\n", res.Bed.Shards(), res.Bed.Partitions())
	}
}
