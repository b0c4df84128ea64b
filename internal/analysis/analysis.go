// Package analysis is pmnet's in-tree static-analysis engine.
//
// The whole reproduction rests on a hand-maintained discipline that no
// compiler enforces: determinism. The DES runs on a virtual clock and a
// seeded PRNG (internal/sim); model code must never read the wall clock, use
// the runtime's randomness, iterate a map in an order-sensitive way, or share
// mutable state between cells. One careless time.Now() or unsorted map range
// silently destroys the "bit-reproducible given a seed" property. (Every
// pmem.Device write is durable when it returns, so there is no persist
// barrier left to check.)
//
// The analyzers here mechanise the rule using only the standard library
// (go/parser + go/ast + go/types), so the tool runs offline with no module
// downloads. cmd/pmnetlint is the CLI driver; CI runs it on every push.
//
// # Suppressing a finding
//
// A finding can be suppressed with a directive comment on the same line or
// the line immediately above it:
//
//	//pmnetlint:ignore <analyzer> <reason>
//
// The analyzer name and a non-empty reason are mandatory; malformed or
// unknown-analyzer directives are themselves reported as findings, so a
// typo cannot silently disable checking.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg    *Package
	report func(analyzer string, pos token.Pos, format string, args ...any)
}

// Reportf records a finding at pos. The runner attributes it to the current
// analyzer and drops it if an ignore directive covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report("", pos, format, args...)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// Scope reports whether the analyzer audits the package with the given
	// import path inside the given module. The fixture harness bypasses it.
	Scope func(modulePath, pkgPath string) bool
	Run   func(*Pass)
}

// Analyzers is the registry, in reporting order. Directive validation only
// accepts these names.
var Analyzers = []*Analyzer{
	WallclockAnalyzer,
	RandsourceAnalyzer,
	MaprangeAnalyzer,
	BoundedworkAnalyzer,
	SyncpoolAnalyzer,
	SharedstateAnalyzer,
	// ignoreaudit runs last: it reports on what the others suppressed.
	IgnoreauditAnalyzer,
}

func byName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// fixtureCorpus reports whether pkgPath is part of the analyzer fixture
// corpus. The corpus is deliberately full of violations, and every analyzer
// audits it, so pointing pmnetlint at a fixture directory demonstrably
// exits non-zero. The module walker never descends into testdata, so the
// corpus cannot make `pmnetlint ./...` fail.
func fixtureCorpus(modulePath, pkgPath string) bool {
	return strings.HasPrefix(pkgPath, modulePath+"/internal/analysis/testdata/")
}

// modelCode reports whether pkgPath is simulation/model code: the module
// root package plus everything under internal/, except the analysis tooling
// itself. cmd/ and examples/ are front-ends, free to talk to the real world.
func modelCode(modulePath, pkgPath string) bool {
	if pkgPath == modulePath || fixtureCorpus(modulePath, pkgPath) {
		return true
	}
	if !strings.HasPrefix(pkgPath, modulePath+"/internal/") {
		return false
	}
	return pkgPath != modulePath+"/internal/analysis"
}

// eventOrdering reports whether pkgPath is one of the event-ordering
// packages where map-iteration order can leak into the event schedule or
// reported results.
func eventOrdering(modulePath, pkgPath string) bool {
	if fixtureCorpus(modulePath, pkgPath) {
		return true
	}
	for _, p := range []string{"sim", "netsim", "dataplane", "harness", "server"} {
		if pkgPath == modulePath+"/internal/"+p {
			return true
		}
	}
	return false
}

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "pmnetlint:ignore"

// directive is one parsed //pmnetlint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// directives extracts every pmnetlint:ignore comment in the file, keyed by
// the line it annotates. Malformed directives are reported via report.
func directives(fset *token.FileSet, file *ast.File, report func(Finding)) map[int][]directive {
	out := make(map[int][]directive)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, DirectivePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			pos := fset.Position(c.Pos())
			switch {
			case name == "" || reason == "":
				report(Finding{Pos: pos, Analyzer: "pmnetlint",
					Message: fmt.Sprintf("malformed directive %q: want //%s <analyzer> <reason>", c.Text, DirectivePrefix)})
			case byName(name) == nil:
				report(Finding{Pos: pos, Analyzer: "pmnetlint",
					Message: fmt.Sprintf("directive names unknown analyzer %q", name)})
			default:
				out[pos.Line] = append(out[pos.Line], directive{analyzer: name, reason: reason, pos: c.Pos()})
			}
		}
	}
	return out
}

// RunPackage executes the given analyzers over pkg and returns the surviving
// findings (suppressed ones removed, malformed directives added), sorted by
// position. Scope is NOT consulted here — callers pick the analyzer set.
//
// When the run set includes ignoreaudit, every directive is additionally
// audited: one that suppressed nothing becomes a finding itself (stale
// ignore), as does one naming an analyzer outside the run set (out-of-scope
// ignore). Audit findings are attributed to ignoreaudit and are themselves
// unsuppressable.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	// A directive on line L suppresses findings on L (trailing comment) and
	// L+1 (directive on the preceding line), per file, per analyzer. Each
	// directive carries a usage bit for the ignoreaudit pass; both covered
	// lines share one record.
	type fileLine struct {
		file string
		line int
	}
	type dirUse struct {
		d    directive
		used bool
	}
	var uses []*dirUse
	suppress := make(map[string]map[fileLine][]*dirUse)
	for _, f := range pkg.Files {
		dirs := directives(pkg.Fset, f, func(fd Finding) { findings = append(findings, fd) })
		for line, ds := range dirs {
			for _, d := range ds {
				u := &dirUse{d: d}
				uses = append(uses, u)
				if suppress[d.analyzer] == nil {
					suppress[d.analyzer] = make(map[fileLine][]*dirUse)
				}
				fn := pkg.Fset.Position(d.pos).Filename
				suppress[d.analyzer][fileLine{fn, line}] = append(suppress[d.analyzer][fileLine{fn, line}], u)
				suppress[d.analyzer][fileLine{fn, line + 1}] = append(suppress[d.analyzer][fileLine{fn, line + 1}], u)
			}
		}
	}
	auditIgnores := false
	for _, a := range analyzers {
		if a.Name == IgnoreauditAnalyzer.Name {
			auditIgnores = true
		}
	}
	for _, a := range analyzers {
		a := a
		pass := &Pass{Pkg: pkg}
		pass.report = func(_ string, pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			if us := suppress[a.Name][fileLine{p.Filename, p.Line}]; len(us) > 0 {
				for _, u := range us {
					u.used = true
				}
				return
			}
			findings = append(findings, Finding{Pos: p, Analyzer: a.Name, Message: fmt.Sprintf(format, args...)})
		}
		a.Run(pass)
	}
	if auditIgnores {
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, u := range uses {
			pos := pkg.Fset.Position(u.d.pos)
			switch {
			case !ran[u.d.analyzer]:
				findings = append(findings, Finding{Pos: pos, Analyzer: IgnoreauditAnalyzer.Name,
					Message: fmt.Sprintf("out-of-scope ignore: %s does not audit this package, so this directive can never suppress anything", u.d.analyzer)})
			case !u.used || u.d.analyzer == IgnoreauditAnalyzer.Name:
				findings = append(findings, Finding{Pos: pos, Analyzer: IgnoreauditAnalyzer.Name,
					Message: fmt.Sprintf("stale ignore: no %s finding left to suppress — delete the directive (its reason was: %s)", u.d.analyzer, u.d.reason)})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ForPackage returns the analyzers whose scope covers pkgPath.
func ForPackage(modulePath, pkgPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range Analyzers {
		if a.Scope(modulePath, pkgPath) {
			out = append(out, a)
		}
	}
	return out
}
