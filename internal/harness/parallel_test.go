package harness

import (
	"fmt"
	"os"
	"testing"

	"pmnet/internal/sim"
)

// TestRunCellsOrdering checks that results land in input order regardless of
// pool size, including pools larger than the cell count.
func TestRunCellsOrdering(t *testing.T) {
	var cells []Cell
	for i := 0; i < 10; i++ {
		i := i
		cells = append(cells, Cell{
			Key:    fmt.Sprintf("c%d", i),
			Custom: func() (any, sim.Time) { return i, 0 },
		})
	}
	for _, workers := range []int{1, 3, 32} {
		out := runCells(cells, workers)
		if len(out) != len(cells) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(cells))
		}
		for i, r := range out {
			if r.Key != cells[i].Key || r.V.(int) != i {
				t.Errorf("workers=%d slot %d: got key=%q v=%v", workers, i, r.Key, r.V)
			}
		}
	}
}

// TestRunExperimentsUnknownID checks batch setup rejects bad ids up front.
func TestRunExperimentsUnknownID(t *testing.T) {
	if _, err := RunExperiments([]string{"fig2", "nope"}, Options{Seed: 1}); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestParallelGoldenSmall runs a cheap batch mixing standard and Custom
// cells (fig16 sweep, fig18/fig21 sampled models) at several pool sizes and
// requires byte-identical rendering. TestParallelGoldenAll covers the whole
// suite.
func TestParallelGoldenSmall(t *testing.T) {
	ids := []string{"fig16", "fig18", "fig21"}
	want, err := RunExperiments(ids, Options{Seed: 7, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunExperiments(ids, Options{Seed: 7, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Experiments {
			w, g := want.Experiments[i].Text(), got.Experiments[i].Text()
			if w != g {
				t.Errorf("workers=%d %s: output differs from sequential:\n--- want ---\n%s\n--- got ---\n%s",
					workers, ids[i], w, g)
			}
		}
	}
}

// TestParallelGoldenAll is the full golden guarantee: every experiment in the
// suite renders byte-identically at -parallel 8 and -parallel 1, and the
// sequential rendering is the committed docs_results.txt — so a PR that moves
// any published number has to re-record the file and show the move in its
// diff.
func TestParallelGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice; skipped in -short mode")
	}
	seq, err := RunExperiments(ExperimentOrder, Options{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../docs_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Text(); got != string(golden) {
		t.Errorf("suite text differs from docs_results.txt (%d vs %d bytes); if the change is meant, "+
			"regenerate it and read the move in git diff:\n"+
			"  go run ./cmd/pmnetbench -run all -seed 1 -parallel 1 > docs_results.txt",
			len(got), len(golden))
	}
	par, err := RunExperiments(ExperimentOrder, Options{Seed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Parallel != 8 {
		t.Fatalf("resolved pool size = %d, want 8", par.Parallel)
	}
	if len(seq.Experiments) != len(par.Experiments) {
		t.Fatalf("experiment counts differ: %d vs %d", len(seq.Experiments), len(par.Experiments))
	}
	for i := range seq.Experiments {
		s, p := seq.Experiments[i], par.Experiments[i]
		if s.ID != p.ID {
			t.Fatalf("experiment order differs at %d: %q vs %q", i, s.ID, p.ID)
		}
		if st, pt := s.Text(), p.Text(); st != pt {
			t.Errorf("%s: parallel output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				s.ID, st, pt)
		}
	}
}
