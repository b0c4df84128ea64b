package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The driver is tested at the run() boundary — the exact surface main wires
// to os.Exit/os.Stdout/os.Stderr — covering the three exit codes and both
// output formats against the in-tree fixture corpus.

// fixtureDir is a package directory guaranteed to produce findings: the
// wallclock fixture corpus (full of deliberate violations, and never walked
// by ./...).
const fixtureDir = "../../internal/analysis/testdata/src/wallclock"

// cleanDir is a package the full analyzer suite accepts as-is.
const cleanDir = "../../internal/pmem"

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	code, stdout, stderr := runLint(t, cleanDir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runLint(t, fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "wallclock") {
		t.Errorf("findings output does not mention the analyzer:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing the finding count summary: %q", stderr)
	}
}

func TestExitUsageErrorIsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "yaml"}, // unknown format
		{"-nosuchflag"},     // unknown flag
		{"/"},               // outside the module
		{"-baseline", "no-such-file.json", cleanDir}, // unreadable baseline
	} {
		code, _, stderr := runLint(t, args...)
		if code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("run(%v): exit 2 with no diagnostic on stderr", args)
		}
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, stderr := runLint(t, "-format", "sarif", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version = %q schema = %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "pmnetlint" {
		t.Fatalf("want exactly one run driven by pmnetlint, got %+v", log.Runs)
	}
	run := log.Runs[0]
	// Rule table: the driver pseudo-rule plus all seven analyzers.
	if got, want := len(run.Tool.Driver.Rules), 8; got != want {
		t.Errorf("rule table has %d entries, want %d", got, want)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for the violation-laden fixture corpus")
	}
	ruleIDs := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
	}
	for _, r := range run.Results {
		if r.Level != "error" {
			t.Errorf("result level = %q, want error", r.Level)
		}
		if idx, ok := ruleIDs[r.RuleID]; !ok || idx != r.RuleIndex {
			t.Errorf("result ruleId %q / ruleIndex %d does not match the rule table", r.RuleID, r.RuleIndex)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if !strings.HasPrefix(loc.ArtifactLocation.URI, "internal/analysis/testdata/src/wallclock/") {
			t.Errorf("artifact URI %q is not module-root-relative", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result has no line: %+v", loc)
		}
	}
}

func TestSARIFDeterministic(t *testing.T) {
	_, first, _ := runLint(t, "-format", "sarif", fixtureDir)
	_, second, _ := runLint(t, "-format", "sarif", fixtureDir)
	if first != second {
		t.Error("two identical runs produced different SARIF output")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "lint-baseline.json")

	code, _, stderr := runLint(t, "-write-baseline", baseline, fixtureDir)
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var entries []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Message  string `json:"message"`
		Count    int    `json:"count"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("baseline is empty for the violation-laden fixture corpus")
	}
	for _, e := range entries {
		if e.Count <= 0 || e.Analyzer == "" || e.File == "" || e.Message == "" {
			t.Errorf("incomplete baseline entry: %+v", e)
		}
	}

	// With every current finding baselined, the same run is clean.
	code, stdout, stderr := runLint(t, "-baseline", baseline, fixtureDir)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("baselined run still printed findings:\n%s", stdout)
	}

	// The baseline does not mask a different package's findings.
	code, _, _ = runLint(t, "-baseline", baseline, "../../internal/analysis/testdata/src/randsource")
	if code != 1 {
		t.Errorf("baseline leaked across packages: exit = %d, want 1", code)
	}
}
