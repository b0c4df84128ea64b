// Command benchdiff compares two pmnetbench JSON documents (schema
// "pmnetbench/v1") and reports the wall-clock delta between them: batch
// events-per-second, and per-cell wall time and ns-per-event, matched by
// (experiment id, cell key).
//
// Usage:
//
//	benchdiff [-threshold PCT] old.json new.json
//
// benchdiff exits 1 when the new document's batch events-per-second regressed
// by more than -threshold percent (default 15) against the old one. That
// status is for two documents recorded on purpose on one quiet machine;
// `make ci` does not run it, because on a shared host the same commit reads
// further apart than any useful threshold. Virtual-time fields are checked
// first — if the two documents simulated different event counts for a
// matched cell, they ran different workloads and the wall-clock comparison
// is flagged as unreliable (but still printed).
//
// Experiments or cells present in only one document are tolerated with a
// warning, never a failure: a freshly added experiment must not fail
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
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold PCT] old.json new.json")
		return 2
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
