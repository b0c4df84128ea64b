// Command benchdiff compares two pmnetbench JSON documents (schema
// "pmnetbench/v1") and reports the wall-clock delta between them: batch
// events-per-second, and per-cell wall time and ns-per-event, matched by
// (experiment id, cell key).
//
// Usage:
//
//	benchdiff [-threshold PCT] old.json new.json
//
// The exit status makes it a CI gate: benchdiff exits 1 when the new
// document's batch events-per-second regressed by more than -threshold
// percent (default 15) against the old one. Virtual-time fields are checked
// first — if the two documents simulated different event counts for a
// matched cell, they ran different workloads and the wall-clock comparison
// is flagged as unreliable (but still printed).
//
// Experiments or cells present in only one document are tolerated with a
// warning, never a failure: a freshly added experiment must not fail CI
// against a baseline recorded before it existed. When the two documents do
// not cover the same cells, the batch-level events-per-second numbers
// describe different batches, so the regression gate is computed from the
// matched cells only (sum of events over sum of wall time on each side).
//
// Wall-clock numbers compare only between like machines. When both documents
// record their core count ("cpus") and the counts differ, benchdiff says so
// and skips the gate: the deltas are still printed, and the deterministic
// columns (event counts, the workload-mismatch check) still diffed, but a
// rate recorded on two cores is not a baseline for one recorded on eight.
//
// The same tool reads speedups: run `pmnetbench -run scale -parallel 1 -json`
// at -shards 1 and -shards 4, then benchdiff the two files; a speedup of
// 2.0x prints as a -50% wall / +100% events-per-second delta.
//
// With -gobench the two files are instead raw `go test -bench` outputs,
// matched by benchmark name (the -N GOMAXPROCS suffix is ignored). The gate
// then fails when any matched benchmark's ns/op regressed by more than
// -threshold percent, or when its allocs/op grew at all — allocation counts
// are deterministic, so the zero-alloc scheduler pins get an exact gate even
// on a noisy runner:
//
//	go test -run '^$' -bench Schedule -benchmem ./internal/sim > new.txt
//	benchdiff -gobench -threshold 40 BENCH_sched_baseline.txt new.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pmnet/internal/benchfmt"
)

func pct(oldV, newV float64) string {
	if oldV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

func nsPerEvent(c benchfmt.Cell) float64 {
	if c.Events == 0 {
		return 0
	}
	return c.WallMs * 1e6 / float64(c.Events)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 15, "max tolerated events-per-second regression (percent) before exiting 1")
	gobench := fs.Bool("gobench", false, "inputs are `go test -bench` outputs: gate per-benchmark ns/op against -threshold and allocs/op against any growth")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-gobench] [-threshold PCT] old new")
		return 2
	}
	if *gobench {
		return runGobench(fs.Arg(0), fs.Arg(1), *threshold, stdout, stderr)
	}
	oldDoc, err := benchfmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newDoc, err := benchfmt.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "old: %s  (seed %d, parallel %d, shards %d, cpus %d)\n",
		fs.Arg(0), oldDoc.Seed, oldDoc.Parallel, oldDoc.Shards, oldDoc.CPUs)
	fmt.Fprintf(stdout, "new: %s  (seed %d, parallel %d, shards %d, cpus %d)\n\n",
		fs.Arg(1), newDoc.Seed, newDoc.Parallel, newDoc.Shards, newDoc.CPUs)

	fmt.Fprintf(stdout, "%-24s %14s %14s %10s\n", "batch", "old", "new", "delta")
	fmt.Fprintf(stdout, "%-24s %14.1f %14.1f %10s\n", "wall_ms",
		oldDoc.WallMs, newDoc.WallMs, pct(oldDoc.WallMs, newDoc.WallMs))
	fmt.Fprintf(stdout, "%-24s %14d %14d %10s\n", "events",
		oldDoc.Perf.Events, newDoc.Perf.Events,
		pct(float64(oldDoc.Perf.Events), float64(newDoc.Perf.Events)))
	fmt.Fprintf(stdout, "%-24s %14.0f %14.0f %10s\n", "events_per_sec",
		oldDoc.Perf.EventsPerSec, newDoc.Perf.EventsPerSec,
		pct(oldDoc.Perf.EventsPerSec, newDoc.Perf.EventsPerSec))
	fmt.Fprintf(stdout, "%-24s %14.3f %14.3f %10s\n", "allocs_per_event",
		oldDoc.Perf.AllocsPerEvent, newDoc.Perf.AllocsPerEvent,
		pct(oldDoc.Perf.AllocsPerEvent, newDoc.Perf.AllocsPerEvent))
	if oldDoc.Perf.EventsPerSec > 0 {
		fmt.Fprintf(stdout, "%-24s %41.2fx\n", "speedup (new/old)",
			newDoc.Perf.EventsPerSec/oldDoc.Perf.EventsPerSec)
	}

	// Per-cell comparison, matched by (experiment id, cell key) in the new
	// document's order. Cells present in only one document are warned about
	// and excluded — a new experiment or a renamed cell must not fail the
	// gate against a baseline that predates it.
	oldCells := make(map[string]benchfmt.Cell)
	for _, e := range oldDoc.Experiments {
		for _, c := range e.Cells {
			oldCells[e.ID+"/"+c.Key] = c
		}
	}
	var unmatchedNew, unmatchedOld []string
	var matchedOldWall, matchedNewWall float64
	var matchedOldEvents, matchedNewEvents uint64
	matched := make(map[string]bool)
	workloadMismatch := false
	header := false
	for _, e := range newDoc.Experiments {
		for _, nc := range e.Cells {
			key := e.ID + "/" + nc.Key
			oc, ok := oldCells[key]
			if !ok {
				unmatchedNew = append(unmatchedNew, key)
				continue
			}
			matched[key] = true
			matchedOldWall += oc.WallMs
			matchedNewWall += nc.WallMs
			matchedOldEvents += oc.Events
			matchedNewEvents += nc.Events
			if !header {
				fmt.Fprintf(stdout, "\n%-24s %14s %14s %10s\n",
					"cell (ns/event)", "old", "new", "delta")
				header = true
			}
			mark := ""
			if oc.Events != nc.Events {
				workloadMismatch = true
				mark = "  [!] event counts differ: different workload"
			}
			fmt.Fprintf(stdout, "%-24s %14.1f %14.1f %10s%s\n",
				key, nsPerEvent(oc), nsPerEvent(nc),
				pct(nsPerEvent(oc), nsPerEvent(nc)), mark)
		}
	}
	for _, e := range oldDoc.Experiments {
		for _, c := range e.Cells {
			if !matched[e.ID+"/"+c.Key] {
				unmatchedOld = append(unmatchedOld, e.ID+"/"+c.Key)
			}
		}
	}
	for _, key := range unmatchedNew {
		fmt.Fprintf(stdout, "\nwarn: cell %s has no baseline counterpart; excluded from comparison\n", key)
	}
	for _, key := range unmatchedOld {
		fmt.Fprintf(stdout, "\nwarn: baseline cell %s absent from new document; excluded from comparison\n", key)
	}
	if workloadMismatch {
		fmt.Fprintln(stdout, "\n[!] some matched cells simulated different event counts; their")
		fmt.Fprintln(stdout, "    wall-clock deltas compare different workloads, not performance.")
	}

	// A document from before the field existed reads cpus 0: unknown, and
	// gated as before.
	if oldDoc.CPUs != 0 && newDoc.CPUs != 0 && oldDoc.CPUs != newDoc.CPUs {
		fmt.Fprintf(stdout, "\nwarn: recorded on different core counts (cpus %d old, %d new): the wall-clock and\n"+
			"    events-per-second deltas above compare machines, not code; gate skipped\n",
			oldDoc.CPUs, newDoc.CPUs)
		return 0
	}

	// Regression gate. When both documents cover exactly the same cells the
	// batch events-per-second is the gate, as always. When they differ, that
	// batch number compares different batches — gate on the matched cells'
	// aggregate rate instead.
	oldRate, newRate := oldDoc.Perf.EventsPerSec, newDoc.Perf.EventsPerSec
	gateName := "events_per_sec"
	if len(unmatchedNew)+len(unmatchedOld) > 0 {
		gateName = "matched-cell events_per_sec"
		oldRate, newRate = 0, 0
		if matchedOldWall > 0 {
			oldRate = float64(matchedOldEvents) / (matchedOldWall / 1e3)
		}
		if matchedNewWall > 0 {
			newRate = float64(matchedNewEvents) / (matchedNewWall / 1e3)
		}
		fmt.Fprintf(stdout, "\nwarn: documents cover different cells; gating on matched cells only (%s old, %s new)\n",
			fmt.Sprintf("%.0f ev/s", oldRate), fmt.Sprintf("%.0f ev/s", newRate))
	}
	if oldRate > 0 {
		reg := (oldRate - newRate) / oldRate * 100
		if reg > *threshold {
			fmt.Fprintf(stdout, "\nFAIL: %s regressed %.1f%% (threshold %.1f%%)\n",
				gateName, reg, *threshold)
			return 1
		}
		fmt.Fprintf(stdout, "\nOK: %s within %.1f%% threshold\n", gateName, *threshold)
	}
	return 0
}

// gobenchResult is one parsed `go test -bench` result line.
type gobenchResult struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// parseGobench reads `go test -bench` output, returning results keyed by
// benchmark name with the -GOMAXPROCS suffix stripped, plus the names in
// file order. Duplicate names (e.g. the same benchmark from two packages or
// -count > 1) keep the LAST result — matching how a human reads a rerun.
func parseGobench(path string) (map[string]gobenchResult, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make(map[string]gobenchResult)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r gobenchResult
		seen := false
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
				seen = true
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		if !seen {
			continue
		}
		if _, dup := out[name]; !dup {
			order = append(order, name)
		}
		out[name] = r
	}
	return out, order, sc.Err()
}

// runGobench compares two `go test -bench` outputs benchmark-by-benchmark.
// ns/op is gated with the percentage threshold (micro-benchmarks on shared
// runners are noisy; pick the threshold accordingly); allocs/op is gated
// exactly, because Go's allocation accounting is deterministic and the
// scheduler benches pin zero steady-state allocations.
func runGobench(oldPath, newPath string, threshold float64, stdout, stderr io.Writer) int {
	oldRes, _, err := parseGobench(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newRes, newOrder, err := parseGobench(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-32s %12s %12s %10s %18s\n", "benchmark (ns/op)", "old", "new", "delta", "allocs old->new")
	failed := false
	matched := 0
	for _, name := range newOrder {
		nr := newRes[name]
		or, ok := oldRes[name]
		if !ok {
			fmt.Fprintf(stdout, "%-32s %12s %12.1f %10s\n", name, "(none)", nr.nsPerOp, "n/a")
			continue
		}
		matched++
		verdict := ""
		reg := 0.0
		if or.nsPerOp > 0 {
			reg = (nr.nsPerOp - or.nsPerOp) / or.nsPerOp * 100
		}
		if reg > threshold {
			verdict = "  FAIL ns/op"
			failed = true
		}
		allocs := "-"
		if or.hasAllocs && nr.hasAllocs {
			allocs = fmt.Sprintf("%.0f -> %.0f", or.allocsPerOp, nr.allocsPerOp)
			if nr.allocsPerOp > or.allocsPerOp {
				verdict += "  FAIL allocs/op grew"
				failed = true
			}
		}
		fmt.Fprintf(stdout, "%-32s %12.1f %12.1f %+9.1f%% %18s%s\n",
			name, or.nsPerOp, nr.nsPerOp, reg, allocs, verdict)
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Fprintf(stdout, "warn: baseline benchmark %s missing from new output\n", name)
		}
	}
	if matched == 0 {
		fmt.Fprintln(stdout, "\nFAIL: no benchmarks matched between the two files")
		return 1
	}
	if failed {
		fmt.Fprintf(stdout, "\nFAIL: scheduler benchmark regression (ns/op threshold %.1f%%, allocs/op exact)\n", threshold)
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: %d benchmarks within %.1f%% ns/op threshold, no allocs/op growth\n", matched, threshold)
	return 0
}
