package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmnet/internal/benchfmt"
)

func writeDoc(t *testing.T, dir, name string, doc benchfmt.Doc) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func exp(id string, cells ...benchfmt.Cell) benchfmt.Experiment {
	return benchfmt.Experiment{ID: id, Cells: cells}
}

func cell(key string, events uint64, wallMs float64) benchfmt.Cell {
	return benchfmt.Cell{Key: key, Events: events, WallMs: wallMs}
}

// TestUnmatchedExperimentWarnsNotFails is the regression test for the CI
// failure mode where a freshly added experiment (present in the new JSON,
// absent from the recorded baseline) broke the diff: benchdiff must warn,
// exclude the unmatched cells, and still gate on the matched ones.
func TestUnmatchedExperimentWarnsNotFails(t *testing.T) {
	dir := t.TempDir()
	oldDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf:        benchfmt.Perf{Events: 1000, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{exp("fig2", cell("a", 500, 1), cell("b", 500, 1))},
	}
	newDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf: benchfmt.Perf{Events: 3000, EventsPerSec: 0.4e6},
		Experiments: []benchfmt.Experiment{
			exp("fig2", cell("a", 500, 1), cell("b", 500, 1)),
			// The new experiment is slow enough that folding it into a naive
			// batch-level gate would report a >15% regression.
			exp("openloop", cell("base/50k", 2000, 100)),
		},
	}
	oldPath := writeDoc(t, dir, "old.json", oldDoc)
	newPath := writeDoc(t, dir, "new.json", newDoc)

	var out, errOut strings.Builder
	code := run([]string{oldPath, newPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d for baseline missing an experiment, want 0\noutput:\n%s%s",
			code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "warn: cell openloop/base/50k has no baseline counterpart") {
		t.Errorf("missing unmatched-cell warning:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "gating on matched cells only") {
		t.Errorf("gate was not restricted to matched cells:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "OK: matched-cell events_per_sec") {
		t.Errorf("matched-cell gate did not pass:\n%s", out.String())
	}
}

// TestUnmatchedBaselineCellWarns: the mirror case — a cell that existed in
// the baseline but vanished from the new document is warned about, not
// silently dropped.
func TestUnmatchedBaselineCellWarns(t *testing.T) {
	dir := t.TempDir()
	oldDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf:        benchfmt.Perf{Events: 1000, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{exp("fig2", cell("a", 500, 1), cell("gone", 500, 1))},
	}
	newDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf:        benchfmt.Perf{Events: 500, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{exp("fig2", cell("a", 500, 1))},
	}
	oldPath := writeDoc(t, dir, "old.json", oldDoc)
	newPath := writeDoc(t, dir, "new.json", newDoc)

	var out, errOut strings.Builder
	code := run([]string{oldPath, newPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "warn: baseline cell fig2/gone absent from new document") {
		t.Errorf("missing vanished-cell warning:\n%s", out.String())
	}
}

// TestMatchedRegressionStillFails: tolerance for unmatched cells must not
// disable the gate itself — a real regression in the matched cells exits 1.
func TestMatchedRegressionStillFails(t *testing.T) {
	dir := t.TempDir()
	oldDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf:        benchfmt.Perf{Events: 1000, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{exp("fig2", cell("a", 1000, 1))},
	}
	newDoc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf: benchfmt.Perf{Events: 2000, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{
			exp("fig2", cell("a", 1000, 2)), // 2x slower on the matched cell
			exp("openloop", cell("base/50k", 1000, 1)),
		},
	}
	oldPath := writeDoc(t, dir, "old.json", oldDoc)
	newPath := writeDoc(t, dir, "new.json", newDoc)

	var out, errOut strings.Builder
	code := run([]string{"-threshold", "15", oldPath, newPath}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d for a 2x matched-cell regression, want 1\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL: matched-cell events_per_sec regressed") {
		t.Errorf("missing FAIL line:\n%s", out.String())
	}
}

// TestCommittedFixtureWarnPath pins the warn path against committed
// documents: testdata/baseline_pre_speedup.json predates the speedup
// experiment, testdata/with_speedup.json includes it. The diff must warn
// per unmatched speedup cell, restrict the gate to the matched fig2 cells,
// and exit 0 — the exact CI situation the first run after adding an
// experiment lands in, recorded as bytes so a regression in the matching
// logic cannot hide behind the doc builders above.
func TestCommittedFixtureWarnPath(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"testdata/baseline_pre_speedup.json",
		"testdata/with_speedup.json",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d for baseline missing the speedup experiment, want 0\noutput:\n%s%s",
			code, out.String(), errOut.String())
	}
	for _, sh := range []string{"1", "2", "4"} {
		want := "warn: cell speedup/shards=" + sh + " has no baseline counterpart"
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing warning %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), "gating on matched cells only") {
		t.Errorf("gate was not restricted to matched cells:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "OK: matched-cell events_per_sec") {
		t.Errorf("matched-cell gate did not pass:\n%s", out.String())
	}
	// The matched fig2 cells got slightly faster, so no workload-mismatch
	// flag may appear: their event counts are identical by construction.
	if strings.Contains(out.String(), "[!]") {
		t.Errorf("spurious workload-mismatch flag:\n%s", out.String())
	}
}

// TestIdenticalDocsPass: the no-op diff stays green and uses the batch gate.
func TestIdenticalDocsPass(t *testing.T) {
	dir := t.TempDir()
	doc := benchfmt.Doc{
		Schema: benchfmt.Schema, Seed: 1,
		Perf:        benchfmt.Perf{Events: 1000, EventsPerSec: 1e6},
		Experiments: []benchfmt.Experiment{exp("fig2", cell("a", 500, 1))},
	}
	oldPath := writeDoc(t, dir, "old.json", doc)
	newPath := writeDoc(t, dir, "new.json", doc)

	var out, errOut strings.Builder
	code := run([]string{oldPath, newPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d for identical documents, want 0\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: events_per_sec within") {
		t.Errorf("batch gate not used for fully matched documents:\n%s", out.String())
	}
	if strings.Contains(out.String(), "warn:") {
		t.Errorf("spurious warning for identical documents:\n%s", out.String())
	}
}

// TestDifferentCPUsSkipGate: a rate recorded on two cores is not a baseline
// for one recorded on eight. benchdiff must say so and skip the gate rather
// than fail (or pass) on a cross-machine delta — while still printing the
// deltas and still flagging a workload mismatch, which is deterministic. A
// document without the field (cpus 0: it predates it) gates as before.
func TestDifferentCPUsSkipGate(t *testing.T) {
	dir := t.TempDir()
	doc := func(cpus int, events uint64, rate float64) benchfmt.Doc {
		return benchfmt.Doc{Schema: benchfmt.Schema, Seed: 1, CPUs: cpus,
			Perf:        benchfmt.Perf{Events: events, EventsPerSec: rate},
			Experiments: []benchfmt.Experiment{exp("fig2", cell("a", events, 1))}}
	}
	oldPath := writeDoc(t, dir, "old.json", doc(2, 1000, 1e6))
	for _, c := range []struct {
		name     string
		newDoc   benchfmt.Doc
		code     int
		want     []string
		dontWant []string
	}{
		{"slower on other cpus", doc(8, 1000, 0.5e6), 0,
			[]string{"cpus 2 old, 8 new", "gate skipped", "-50.0%"}, []string{"FAIL", "OK:", "[!]"}},
		{"different workload on other cpus", doc(8, 2000, 0.5e6), 0,
			[]string{"gate skipped", "[!] event counts differ"}, []string{"FAIL", "OK:"}},
		{"slower on same cpus", doc(2, 1000, 0.5e6), 1,
			[]string{"FAIL: events_per_sec regressed 50.0%"}, []string{"gate skipped"}},
		{"slower, cpus unrecorded", doc(0, 1000, 0.5e6), 1,
			[]string{"FAIL: events_per_sec regressed 50.0%"}, []string{"gate skipped"}},
	} {
		newPath := writeDoc(t, dir, "new.json", c.newDoc)
		var out, errOut strings.Builder
		if code := run([]string{oldPath, newPath}, &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d\noutput:\n%s%s", c.name, code, c.code, out.String(), errOut.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
		for _, w := range c.dontWant {
			if strings.Contains(out.String(), w) {
				t.Errorf("%s: output has %q:\n%s", c.name, w, out.String())
			}
		}
	}
}
