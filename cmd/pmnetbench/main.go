// Command pmnetbench regenerates the tables and figures of the PMNet paper
// (ISCA 2021) on the simulated testbed.
//
// Usage:
//
//	pmnetbench [-run all|ID[,ID...]] [-list] [-seed N] [-parallel N] [-shards N] [-format table|csv|json]
//
// -list prints the experiment ids -run accepts (fig2 … impairments).
// Each experiment prints the rows the corresponding figure plots, plus notes
// comparing the measured shape against the paper's reported numbers.
// Experiment cells are independent simulations; -parallel N executes them on a
// worker pool of that size (0 = GOMAXPROCS) with output byte-identical to
// -parallel 1. -shards N partitions every cell's testbed across N engine
// shards (internal/sim/pdes; 0 = one partition on one engine); output is
// byte-identical for every N ≥ 1, so there the flag is purely a wall-clock knob — pair it with
// -parallel 1, since intra-cell and inter-cell parallelism compete for the
// same cores. -json (or -format json) emits the machine-readable form with
// per-cell virtual-time stats and real wall-clock timings; cmd/benchdiff
// compares two such documents. -cpuprofile/-memprofile write runtime/pprof
// profiles of the batch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmnet/internal/benchfmt"
	"pmnet/internal/harness"
	"pmnet/internal/prof"
)

func main() {
	run := flag.String("run", "all", "experiment id or 'all'")
	seed := flag.Uint64("seed", 1, "simulation seed (experiments are deterministic per seed)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "table", "output format: table | csv | json")
	parallel := flag.Int("parallel", 0, "cell worker-pool size (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "shorthand for -format json")
	shards := flag.Int("shards", 0, "partition every cell's testbed across N engine shards (output byte-identical for every N >= 1; 0 = one partition, one engine; combine with -parallel 1 to avoid oversubscription)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *list {
		for _, id := range harness.ExperimentOrder {
			fmt.Println(id)
		}
		return
	}
	if *jsonOut {
		*format = "json"
	}

	var ids []string
	if *run == "all" {
		ids = harness.ExperimentOrder
	} else {
		for _, id := range strings.Split(*run, ",") {
			if _, ok := harness.Specs[id]; !ok {
				fmt.Fprintf(os.Stderr, "pmnetbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmnetbench: %v\n", err)
		os.Exit(1)
	}

	batch, err := harness.RunExperiments(ids, harness.Options{Seed: *seed, Parallel: *parallel, Shards: *shards})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmnetbench: %v\n", err)
		os.Exit(1)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "pmnetbench: %v\n", err)
		os.Exit(1)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchfmt.FromBatch(batch)); err != nil {
			fmt.Fprintf(os.Stderr, "pmnetbench: %v\n", err)
			os.Exit(1)
		}
	case "csv":
		for i, er := range batch.Experiments {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("# %s: %s\n", er.ID, er.Table.Title)
			fmt.Print(er.Table.CSV())
			for _, n := range er.Notes {
				fmt.Printf("# note: %s\n", n)
			}
		}
	default:
		fmt.Print(batch.Text())
	}
}
