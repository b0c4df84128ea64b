package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pmnet/internal/harness"
	"pmnet/internal/stats"
)

// cost is what one call cost the host: wall time, user+sys CPU, and the
// allocator's object and byte counts.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// minus is c less o, field by field, stopping at zero: o is a median of
// other runs, and may exceed a field of c.
func (c cost) minus(o cost) cost {
	return cost{wall: floorSub(c.wall, o.wall), cpu: floorSub(c.cpu, o.cpu),
		mallocs: floorSub(c.mallocs, o.mallocs), bytes: floorSub(c.bytes, o.bytes)}
}

func floorSub[T time.Duration | uint64](a, b T) T {
	if a < b {
		return 0
	}
	return a - b
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// costOf measures f. The collector runs first so garbage of an earlier call
// is not charged to this one.
func costOf(f func()) cost {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return cost{wall: wall, cpu: cpu,
		mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}
}

// retainedMB is the live heap after a forced collection; the caller keeps
// the finished testbed referenced across the call.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runOnce is one harness.Run through the entry point users run, with its cost.
func runOnce(cfg harness.RunConfig) (*harness.RunResult, cost, error) {
	var res *harness.RunResult
	var err error
	c := costOf(func() { res, err = harness.Run(cfg) })
	return res, c, err
}

// medianCost takes each field's median on its own: the fields are not
// measured independently, but a median per field is steadier than the
// fields of the median-wall sample.
func medianCost(cs []cost) cost {
	col := func(get func(cost) float64) float64 {
		v := make([]float64, len(cs))
		for i, c := range cs {
			v[i] = get(c)
		}
		return median(v)
	}
	return cost{
		wall:    time.Duration(col(func(c cost) float64 { return float64(c.wall) })),
		cpu:     time.Duration(col(func(c cost) float64 { return float64(c.cpu) })),
		mallocs: uint64(col(func(c cost) float64 { return float64(c.mallocs) })),
		bytes:   uint64(col(func(c cost) float64 { return float64(c.bytes) })),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRun runs the workload cut to one request per client: build + prefill
// + one round trip.
func setupRun(w spec, cfg harness.RunConfig) (cost, error) {
	_, c, err := runOnce(w.setupConfig(cfg))
	if err != nil {
		return cost{}, fmt.Errorf("set-up run: %w", err)
	}
	return c, nil
}

// counters is a finished run's registry snapshot by name.
type counters map[string]uint64

func snapshot(res *harness.RunResult) counters {
	c := counters{}
	for _, s := range res.Bed.Counters().Snapshot() {
		c[s.Name] = s.Value
	}
	return c
}

// sumDev sums a per-device counter ("log.logged") over the device chain.
func (c counters) sumDev(suffix string) uint64 {
	var n uint64
	for name, v := range c {
		if rest, ok := strings.CutPrefix(name, "dev"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 && rest[i+1:] == suffix {
				n += v
			}
		}
	}
	return n
}

// outcome is what the run attempted and what became of it.
type outcome struct {
	attempted uint64 // requests issued by clients plus actions shed before issue
	failed    uint64 // client-failed + never completed + shed
	requests  uint64 // completed requests, the per-request denominator
	problems  []string
}

// check applies the per-run correctness checks and counts failures.
func check(w spec, cfg harness.RunConfig, res *harness.RunResult, c counters) outcome {
	var o outcome
	bad := func(format string, args ...any) {
		o.problems = append(o.problems, w.name+": "+fmt.Sprintf(format, args...))
	}
	issued := c["client.updates_sent"] + c["client.bypass_sent"]
	completed := c["client.completed"]
	o.requests = completed
	o.attempted = issued
	o.failed = issued - completed // client.failed and never-completed alike
	if w.open() {
		op := res.Open
		o.attempted += op.Shed
		o.failed += op.Shed
		if op.Shed != 0 {
			bad("open loop shed %d of %d arrivals", op.Shed, op.Offered)
		}
		if op.MeasuredDone != op.MeasuredOff {
			bad("open loop backlog: %d of %d measured arrivals completed", op.MeasuredDone, op.MeasuredOff)
		}
		if completed != op.Requests {
			bad("client.completed %d != requests the drivers completed %d", completed, op.Requests)
		}
	} else {
		want := uint64(cfg.Clients) * uint64(cfg.Requests+cfg.Warmup)
		if completed != want || res.Driver.Completed != want {
			bad("client.completed %d, drivers %d, want %d", completed, res.Driver.Completed, want)
		}
		if got := res.Run.Requests; got != uint64(cfg.Clients)*uint64(cfg.Requests) {
			bad("measured %d requests, want %d", got, cfg.Clients*cfg.Requests)
		}
	}
	if c["server.updates_applied"] != c["client.updates_sent"] {
		bad("server.updates_applied %d != client.updates_sent %d",
			c["server.updates_applied"], c["client.updates_sent"])
	}
	if live := c.sumDev("log.live"); live != 0 {
		bad("%d log entries still live at quiescence", live)
	}
	if o.failed != 0 {
		bad("%d of %d requests failed", o.failed, o.attempted)
	}
	return o
}

// simMetrics are the modelled design's results: a pure function of the
// config and seed, so a change that only speeds the simulator up must leave
// them bit-equal.
type simMetrics struct {
	meanUS, p50us, p99us, p999us, kreqPerS float64
	samples                                uint64
}

func simOf(res *harness.RunResult) simMetrics {
	h := res.Run.Hist
	return simMetrics{
		meanUS:   h.Mean().Micros(),
		p50us:    percentileUS(h, 50),
		p99us:    percentileUS(h, 99),
		p999us:   percentileUS(h, 99.9),
		kreqPerS: res.Run.Throughput() / 1e3,
		samples:  h.Count(),
	}
}

// percentileUS reads a percentile off the histogram's CDF with linear
// interpolation inside the bucket that holds it. Histogram.Percentile
// returns the bucket's midpoint, a 3 % step: two seeds would either read
// exactly alike or a whole step apart.
func percentileUS(h *stats.Histogram, p float64) float64 {
	cdf := h.CDF()
	if len(cdf) == 0 {
		return 0
	}
	target := p / 100
	prevLat, prevFrac := h.Min().Micros(), 0.0
	for _, pt := range cdf {
		if pt.Fraction >= target {
			lat := pt.Latency.Micros()
			if pt.Fraction == prevFrac {
				return lat
			}
			return prevLat + (lat-prevLat)*(target-prevFrac)/(pt.Fraction-prevFrac)
		}
		prevLat, prevFrac = pt.Latency.Micros(), pt.Fraction
	}
	return h.Max().Micros()
}

// digest hashes everything the simulation decided: the counter snapshot
// (minus the tracer's own counters, which exist only when tracing), the
// latency distribution and the virtual end time.
func digest(res *harness.RunResult, c counters) string {
	names := make([]string, 0, len(c))
	for name := range c {
		if !strings.HasPrefix(name, "trace.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, c[name])
	}
	hist := res.Run.Hist
	fmt.Fprintf(h, "n=%d min=%d max=%d", hist.Count(), hist.Min(), hist.Max())
	for _, p := range []float64{50, 90, 99, 99.9} {
		fmt.Fprintf(h, " p%v=%d", p, hist.Percentile(p))
	}
	fmt.Fprintf(h, "\nend=%d\n", res.Bed.Now())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// measurement is what one run of a workload yields, in either mode.
type measurement struct {
	metrics           metrics
	attempted, failed uint64
	problems          []string // failed checks
	notes             []string
}

// add folds one simulation's outcome in.
func (m *measurement) add(o outcome) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
}

// measureEndToEnd repeats a set-up run and the full simulation until seconds
// have passed (and at least minReps times), and reports each host metric's
// median over the repetitions, net of the median set-up. Set-up is measured
// up front for a twelfth of the time and once more beside every repetition:
// its median is subtracted from every repetition, so an unsteady one would
// shift them all. The simulation is the same every time, so its own results
// must repeat exactly.
func measureEndToEnd(w spec, cfg harness.RunConfig, seconds float64, minReps int) (*measurement, error) {
	var setups, runs []cost
	var heapMB []float64
	var events, requests uint64
	var first simMetrics
	var firstDigest string
	e := &measurement{metrics: metrics{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// A 10 ms set-up needs many runs for a steady median; a 1 s one cannot
	// afford them.
	for warm := time.Now().Add(time.Duration(seconds / 12 * float64(time.Second))); time.Now().Before(warm); {
		c, err := setupRun(w, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c)
	}
	for len(runs) < minReps || time.Now().Before(deadline) {
		c, err := setupRun(w, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c)
		res, c, err := runOnce(cfg)
		if err != nil {
			return nil, err
		}
		heapMB = append(heapMB, retainedMB())
		snap := snapshot(res)
		o := check(w, cfg, res, snap)
		if o.requests == 0 {
			return nil, fmt.Errorf("%s: no request completed", w.name)
		}
		d := digest(res, snap)
		if len(runs) == 0 {
			events, requests, first, firstDigest = snap["engine.events"], o.requests, simOf(res), d
		} else if d != firstDigest {
			o.problems = append(o.problems,
				fmt.Sprintf("%s: repetition %d digest %s != first %s", w.name, len(runs), d, firstDigest))
		}
		runtime.KeepAlive(res)
		e.add(o)
		runs = append(runs, c)
	}
	// Subtracting one set-up from every repetition keeps their order, so the
	// median repetition net of set-up is the median of the net repetitions.
	setup := medianCost(setups)
	run := medianCost(runs).minus(setup)
	n := float64(requests)
	m := e.metrics
	m.set("host_ns_per_req", "ns", float64(run.wall)/n)
	m.set("sim_events_per_s", "events/s", float64(events)/run.wall.Seconds())
	m.set("cpu_ns_per_req", "ns", float64(run.cpu)/n)
	m.set("allocs_per_req", "count", float64(run.mallocs)/n)
	m.set("alloc_bytes_per_req", "B", float64(run.bytes)/n)
	m.set("heap_retained_mb", "MB", median(heapMB))
	m.set("setup_s", "s", setup.wall.Seconds())
	m.set("sim_mean_us", "us", first.meanUS)
	m.set("sim_p50_us", "us", first.p50us)
	m.set("sim_p99_us", "us", first.p99us)
	m.set("sim_p999_us", "us", first.p999us)
	m.set("sim_kreq_per_s", "kreq/s", first.kreqPerS)
	e.notes = append(e.notes, fmt.Sprintf(
		"%d repetitions of %d requests, %d set-up runs; sim_mean_us and the sim_p*_us percentiles over %d samples; sim_digest %s (every repetition)",
		len(runs), requests, len(setups), first.samples, firstDigest))
	if w.open() {
		e.notes = append(e.notes, "open loop: latency is completion minus due time; the generator runs in virtual time, so it is never late (lateness 0 by construction)")
	}
	return e, nil
}
