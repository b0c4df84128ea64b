package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest: fixture
// files under testdata/src/<name> carry `// want "regexp"` comments on the
// lines where findings are expected; every finding must match a want on its
// line and every want must be matched by a finding.

var wantRE = regexp.MustCompile(`want "([^"]+)"`)

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := NewLoader(root, modPath)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var ws []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				ws = append(ws, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(ws) == 0 {
		t.Fatal("fixture has no want annotations")
	}
	return ws
}

func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	checkFixtureWith(t, []*Analyzer{a}, name)
}

// checkFixtureWith runs a specific analyzer set over a fixture; ignoreaudit
// needs company (its findings are defined by what the others suppress).
func checkFixtureWith(t *testing.T, as []*Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := RunPackage(pkg, as)
	wants := parseWants(t, pkg)
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
}

func TestWallclockFixture(t *testing.T)   { checkFixture(t, WallclockAnalyzer, "wallclock") }
func TestRandsourceFixture(t *testing.T)  { checkFixture(t, RandsourceAnalyzer, "randsource") }
func TestMaprangeFixture(t *testing.T)    { checkFixture(t, MaprangeAnalyzer, "maprange") }
func TestSyncpoolFixture(t *testing.T)    { checkFixture(t, SyncpoolAnalyzer, "syncpool") }
func TestSharedstateFixture(t *testing.T) { checkFixture(t, SharedstateAnalyzer, "sharedstate") }
func TestBoundedworkFixture(t *testing.T) { checkFixture(t, BoundedworkAnalyzer, "boundedwork") }

func TestIgnoreauditFixture(t *testing.T) {
	checkFixtureWith(t, []*Analyzer{MaprangeAnalyzer, IgnoreauditAnalyzer}, "ignoreaudit")
}

// TestDirectiveValidation: a malformed or unknown-analyzer directive is
// itself a finding and does not suppress the finding beneath it.
func TestDirectiveValidation(t *testing.T) {
	pkg := loadFixture(t, "directives")
	findings := RunPackage(pkg, []*Analyzer{MaprangeAnalyzer})
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s: %s", f.Analyzer, f.Message))
	}
	mustContain := []string{
		"pmnetlint: malformed directive",
		"pmnetlint: directive names unknown analyzer \"mapranje\"",
	}
	for _, want := range mustContain {
		found := false
		for _, g := range got {
			if strings.Contains(g, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing finding containing %q in %q", want, got)
		}
	}
	// Both map ranges must still be reported: broken directives suppress
	// nothing.
	nRange := 0
	for _, f := range findings {
		if f.Analyzer == "maprange" {
			nRange++
		}
	}
	if nRange != 2 {
		t.Errorf("got %d maprange findings, want 2 (broken directives must not suppress)", nRange)
	}
}

func TestScopes(t *testing.T) {
	const mod = "pmnet"
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		{WallclockAnalyzer, "pmnet", true},
		{WallclockAnalyzer, "pmnet/internal/sim", true},
		{WallclockAnalyzer, "pmnet/internal/analysis", false},
		{WallclockAnalyzer, "pmnet/cmd/pmnetbench", false},
		{RandsourceAnalyzer, "pmnet/internal/workload", true},
		{RandsourceAnalyzer, "pmnet/examples/quickstart", false},
		{MaprangeAnalyzer, "pmnet/internal/sim", true},
		{MaprangeAnalyzer, "pmnet/internal/netsim", true},
		{MaprangeAnalyzer, "pmnet/internal/dataplane", true},
		{MaprangeAnalyzer, "pmnet/internal/harness", true},
		{MaprangeAnalyzer, "pmnet/internal/server", true},
		{MaprangeAnalyzer, "pmnet/internal/kv", false},
		{BoundedworkAnalyzer, "pmnet/internal/dataplane", true},
		{BoundedworkAnalyzer, "pmnet/internal/server", false},
		{BoundedworkAnalyzer, "pmnet/internal/sim", false},
		{BoundedworkAnalyzer, "pmnet/internal/analysis/testdata/src/boundedwork", true},
		{IgnoreauditAnalyzer, "pmnet/internal/server", true},
		{IgnoreauditAnalyzer, "pmnet/internal/analysis", true},
		{IgnoreauditAnalyzer, "pmnet/cmd/pmnetbench", true},
		{IgnoreauditAnalyzer, "pmnet/examples/quickstart", true},
		{SyncpoolAnalyzer, "pmnet/internal/sim", true},
		{SyncpoolAnalyzer, "pmnet/internal/netsim", true},
		{SyncpoolAnalyzer, "pmnet/internal/harness", true},
		{SyncpoolAnalyzer, "pmnet/internal/analysis", false},
		{SyncpoolAnalyzer, "pmnet/cmd/pmnetbench", false},
		{SharedstateAnalyzer, "pmnet/internal/sim", true},
		{SharedstateAnalyzer, "pmnet/internal/netsim", true},
		{SharedstateAnalyzer, "pmnet/internal/server", true},
		{SharedstateAnalyzer, "pmnet/internal/harness", false},
		{SharedstateAnalyzer, "pmnet/internal/sim/pdes", false},
		{SharedstateAnalyzer, "pmnet/internal/analysis", false},
		{SharedstateAnalyzer, "pmnet/cmd/pmnetsim", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(mod, c.pkg); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

// TestRepoIsClean is the in-tree equivalent of `pmnetlint ./...` exiting 0:
// the repository must satisfy its own invariants. A regression here means a
// change reintroduced wall-clock time, ambient randomness, unsorted map
// iteration, or cross-cell shared state.
func TestRepoIsClean(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := NewLoader(root, modPath)
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages found (%d); walker broken?", len(pkgs))
	}
	for _, pd := range pkgs {
		analyzers := ForPackage(modPath, pd.ImportPath)
		if len(analyzers) == 0 {
			continue
		}
		pkg, err := l.LoadDir(pd.Dir, pd.ImportPath)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", pd.ImportPath, err)
		}
		for _, f := range RunPackage(pkg, analyzers) {
			t.Errorf("%v", f)
		}
	}
}
