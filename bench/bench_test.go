package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at 1/200 of full size in both modes and
// holds what the program emits against what BENCHMARK.json declares, in both
// directions.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	setupDeclared := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupDeclared = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setupDeclared {
		t.Error(`no end-to-end metric setup_s with unit "s", better "lower"`)
	}

	for _, decl := range b.Workloads {
		unique("workload", decl.Name)
		w, ok := findWorkload(decl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", decl.Name)
			continue
		}
		if decl.Why == "" || len(decl.Why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters", decl.Name)
		}
		for trace, declared := range [][]metricJSON{b.EndToEnd, b.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				t.Parallel() // host readings mix, and do not matter here
				o := options{seed: 1, seconds: 0.001, trace: trace, scale: 1.0 / 200, outDir: t.TempDir()}
				res, notes, err := measure(w, o, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, attempted %d, failed %d\n%v", res.Correct, res.Attempted, res.Failed, notes)
				}
				isDeclared := map[string]bool{}
				for _, d := range declared {
					isDeclared[d.Name] = true
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("declared metric %q is not emitted", d.Name)
					} else if got.Unit != d.Unit {
						t.Errorf("%s emitted in %q, declared in %q", d.Name, got.Unit, d.Unit)
					}
				}
				for name := range res.Metrics {
					if !isDeclared[name] {
						t.Errorf("emitted metric %q is not declared", name)
					}
				}
			})
		}
	}
	for _, m := range append(append([]metricJSON(nil), b.EndToEnd...), b.PerLayer...) {
		unique("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestAgreement holds -agree's comparison to canned readings: off by more
// than the bound in either direction disagrees, whichever set ran first, and
// a simulated metric must repeat exactly.
func TestAgreement(t *testing.T) {
	host := endToEndDef{Name: "host_ns_per_req", Bound: 0.25}
	sim := endToEndDef{Name: "sim_p50_us", Bound: 0.08}
	for _, c := range []struct {
		def   endToEndDef
		x, y  float64
		agree bool
	}{
		{host, 1000, 1000, true},
		{host, 1000, 1200, true},
		{host, 1200, 1000, true},
		{host, 1000, 1400, false}, // 40 % worse
		{host, 1400, 1000, false}, // 40 % better is no agreement either
		{host, 1000, 790, false},  // 21 % of set 1, but 27 % of set 2
		{sim, 53.87, 53.87, true},
		{sim, 53.87, 53.88, false}, // inside the bound, but not exact
	} {
		diff, agree := agreement(c.def, c.x, c.y)
		if agree != c.agree {
			t.Errorf("%s: %g against %g (%+.1f%%): agree %v, want %v", c.def.Name, c.x, c.y, 100*diff, agree, c.agree)
		}
		if _, back := agreement(c.def, c.y, c.x); back != agree {
			t.Errorf("%s: %g against %g agrees one way round and not the other", c.def.Name, c.x, c.y)
		}
	}
}
