package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pmnet"
	"pmnet/internal/harness"
)

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// measurePerLayer reads the per-layer metrics from their three sources —
// counts of one full-size untraced run, probes, and the traced run at
// tracedFraction of the size (small) — and attributes the untraced run's
// host time to the layers.
func measurePerLayer(w spec, cfg, small harness.RunConfig, seconds float64, outDir string, man manifest) (*measurement, error) {
	setup, err := setupRun(w, cfg)
	if err != nil {
		return nil, err
	}
	res, c, err := runOnce(cfg)
	if err != nil {
		return nil, err
	}
	snap := snapshot(res)
	pl := &measurement{metrics: metrics{}}
	o := check(w, cfg, res, snap)
	pl.add(o)
	reqs := o.requests
	if reqs == 0 {
		return nil, fmt.Errorf("%s: no request completed", w.name)
	}
	hostNS := float64(c.minus(setup).wall) / float64(reqs)
	m := pl.metrics

	// 1. Counts, normalised: deterministic per seed.
	links := snap["net.delivered"] + snap.sumDev("forwarded") + res.Bed.ToR.Forwarded()
	for _, sw := range res.Bed.FabricSwitches {
		links += sw.Forwarded()
	}
	drops := snap["net.dropped_full"] + snap["net.dropped_rand"] + snap["net.dropped_dead"] + snap["net.dropped_burst"]
	logged := snap.sumDev("log.logged")
	bypassed := snap.sumDev("log.bypassed_collision") + snap.sumDev("log.bypassed_full") + snap.sumDev("log.bypassed_oversize")
	served := snap["server.updates_applied"] + snap["server.reads_served"]
	m.set("sim.events_per_req", "count", ratio(snap["engine.events"], reqs))
	m.set("pdes.epochs", "count", float64(snap["sim.epochs"]))
	m.set("pdes.events_per_epoch", "count", float64(snap["sim.events_per_epoch"]))
	m.set("netsim.pkts_per_req", "count", ratio(snap["net.delivered"], reqs))
	m.set("netsim.links_per_req", "count", ratio(links, reqs))
	m.set("netsim.drop_ratio", "ratio", ratio(drops, snap["net.delivered"]+drops))
	m.set("dataplane.fwd_per_req", "count", ratio(snap.sumDev("forwarded"), reqs))
	m.set("dataplane.log_admit_ratio", "ratio", ratio(logged, logged+bypassed))
	m.set("dataplane.cache_hit_ratio", "ratio",
		ratio(snap.sumDev("cache.hits"), snap.sumDev("cache.hits")+snap.sumDev("cache.misses")))
	m.set("dataplane.ttl_resends_per_kreq", "count", 1000*ratio(snap.sumDev("ttl_resends"), reqs))
	m.set("pmem.persists_per_req", "count", ratio(snap.sumDev("pm.persists"), reqs))
	m.set("client.resend_ratio", "ratio", ratio(snap["client.resends"], o.attempted))
	m.set("client.early_ack_ratio", "ratio", ratio(snap["client.pmnet_acks"], snap["client.updates_sent"]))
	m.set("server.dup_ratio", "ratio",
		ratio(snap["server.duplicates"], snap["server.updates_applied"]+snap["server.duplicates"]))
	m.set("server.reorder_ratio", "ratio", ratio(snap["server.reordered"], snap["server.updates_applied"]))
	// End to end in the issue, per layer here: it is 0 on every workload and
	// the driver wants end-to-end metrics that never are (see README).
	m.set("failed_ratio", "ratio", ratio(o.failed, o.attempted))
	var shed, offered uint64
	if res.Open != nil {
		shed, offered = res.Open.Shed, res.Open.Offered
	}
	m.set("openloop.shed_ratio", "ratio", ratio(shed, offered))
	actionsPerReq := ratio(offered, reqs)

	// 2. Probes.
	p, err := runProbes(w, cfg, time.Duration(seconds/32*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	m.set("sim.schedule_ns", "ns", p.schedule.ns)
	m.set("sim.schedule_allocs", "count", p.schedule.allocs)
	m.set("sim.schedule_cancel_ns", "ns", p.scheduleCancel.ns)
	m.set("netsim.hop_ns", "ns", p.hop.ns)
	m.set("netsim.hop_allocs", "count", p.hop.allocs)
	m.set("pmem.persist_ns", "ns", p.persist.ns)
	m.set("protocol.codec_ns", "ns", p.codec.ns)
	m.set("protocol.codec_allocs", "count", p.codec.allocs)
	m.set("dataplane.update_hop_ns", "ns", p.updateHop.ns)
	m.set("dataplane.update_hop_allocs", "count", p.updateHop.allocs)
	m.set("dataplane.logtable_ns", "ns", p.logTable.ns)
	m.set("dataplane.cache_ns", "ns", p.cache.ns)
	m.set("server.apply_ns", "ns", p.apply.ns)
	m.set("server.apply_allocs", "count", p.apply.allocs)
	m.set("kv.put_ns", "ns", p.kvPut.ns)
	m.set("kv.get_ns", "ns", p.kvGet.ns)
	m.set("kv.put_allocs", "count", p.kvPut.allocs)
	m.set("rediskv.op_ns", "ns", p.redisOp.ns)
	m.set("apps.handle_ns", "ns", p.appsHandle.ns)
	m.set("client.roundtrip_ns", "ns", p.roundtrip.ns)
	m.set("client.roundtrip_allocs", "count", p.roundtrip.allocs)
	m.set("workload.next_ns", "ns", p.next.ns)
	m.set("workload.next_allocs", "count", p.next.allocs)
	m.set("openloop.action_ns", "ns", p.action.ns)
	m.set("stats.record_ns", "ns", p.record.ns)
	m.set("trace.emit_ns", "ns", p.emit.ns)

	// 3. Attribution: a layer's probe time per op × its ops per request ÷
	// host_ns_per_req. Every probe's time is taken net of the engine's own
	// dispatch cost (events × sim.schedule_ns), which the sim layer carries,
	// and dataplane's net of the one PM write pmem carries. What the probes
	// of dataplane, server and client spend transmitting to their sinks
	// overlaps netsim and is not removed: the remainder is printed so that
	// over- and under-attribution both show.
	sched := p.schedule.ns
	persistSelf := p.persist.self(sched)
	dataplaneSelf := max(p.updateHop.self(sched)-persistSelf, 0)
	n := float64(reqs)
	shares := []struct {
		layer string
		ns    float64 // host ns per request the probes put in this layer
	}{
		{"sim", sched * m["sim.events_per_req"].Value},
		{"netsim", p.hop.self(sched) / 2 * m["netsim.links_per_req"].Value}, // the probe's packet crosses 2 links
		{"pmem", persistSelf * m["pmem.persists_per_req"].Value},
		{"protocol", p.codec.ns},
		{"dataplane", dataplaneSelf*float64(logged+bypassed)/n + p.cache.ns},
		{"server", p.apply.self(sched) * float64(served) / n},
		{"kv", (p.kvPut.ns*float64(snap["server.updates_applied"]) + p.kvGet.ns*float64(snap["server.reads_served"])) / n},
		{"rediskv", p.redisOp.ns * float64(served) / n},
		{"client", p.roundtrip.self(sched)},
		{"workload", p.next.ns},
		{"openloop", p.action.ns * actionsPerReq},
	}
	rest := 1.0
	for _, s := range shares {
		share := s.ns / hostNS
		m.set(s.layer+".host_share", "ratio", share)
		rest -= share
	}
	m.set("harness.unattributed_share", "ratio", rest)

	// 4. The traced run, with its determinism checks.
	if err := measureTraced(w, small, pl, outDir, man); err != nil {
		return nil, err
	}
	m.set("harness.peak_rss_mb", "MB", peakRSSMB())
	pl.notes = append(pl.notes,
		fmt.Sprintf("per-layer run: host_ns_per_req %.1f over %d requests, sim_digest %s", hostNS, reqs, digest(res, snap)))
	return pl, nil
}

// measureTraced runs the small config three times — through harness.Run,
// through the benchmark's own wiring of pmnet.NewTestbed untraced, and
// through the same wiring with Config.Trace set and spans — and once more at
// 1 shard for a sharded workload. All must decide the same simulation.
func measureTraced(w spec, small harness.RunConfig, pl *measurement, outDir string, man manifest) error {
	plain, _, err := runOnce(small)
	if err != nil {
		return err
	}
	want := digest(plain, snapshot(plain))
	same := func(what string, res *harness.RunResult) {
		if got := digest(res, snapshot(res)); got != want {
			pl.problems = append(pl.problems,
				fmt.Sprintf("%s: sim_digest %s %s != harness.Run's %s", w.name, what, got, want))
		}
	}
	untraced, err := runOwn(w, small, false)
	if err != nil {
		return err
	}
	same("of the benchmark's own wiring", untraced.res)
	tr, err := runOwn(w, small, true)
	if err != nil {
		return err
	}
	same("with Config.Trace and spans", tr.res)
	if small.Shards > 1 {
		oneShard := small
		oneShard.Shards = 1
		res, _, err := runOnce(oneShard)
		if err != nil {
			return err
		}
		same("at 1 shard", res)
	}

	b := foldTrace(tr.tracer.Records(), small.Design != pmnet.ClientServer)
	m := pl.metrics
	m.set("client.sim_stack_us", "us", b.stackUS)
	m.set("netsim.sim_wire_us", "us", b.wireUS)
	m.set("dataplane.sim_pipeline_us", "us", b.pipelineUS)
	m.set("pmem.sim_persist_us", "us", b.persistUS)
	m.set("server.sim_apply_us", "us", b.applyUS)
	m.set("trace.folded_reqs", "count", float64(b.folded))
	m.set("trace.dropped", "count", float64(tr.tracer.Dropped()))
	// bed.Run() alone on both sides: set-up, which tracing does not touch
	// and which dwarfs a run this small on kv_mixed, stays out of the ratio.
	m.set("trace.overhead_ratio", "ratio", float64(tr.simRun)/float64(untraced.simRun))
	m.set("apps.handle_span_ns", "ns", tr.handleNS)
	m.set("workload.next_span_ns", "ns", tr.nextNS)
	m.set("stats.record_span_ns", "ns", tr.recordNS)
	m.set("sim.run_self_share", "ratio", tr.simRunSelfShare)
	pl.notes = append(pl.notes, fmt.Sprintf("traced run: %d spans, %d trace records (%d dropped), %d updates folded, sim_digest %s",
		len(tr.spans), tr.tracer.Len(), tr.tracer.Dropped(), b.folded, want))
	return writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), struct {
		Manifest manifest `json:"manifest"`
		Workload string   `json:"workload"`
		Spans    []span   `json:"spans"`
	}{man, w.name, tr.spans})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
