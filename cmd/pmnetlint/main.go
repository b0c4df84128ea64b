// Command pmnetlint enforces pmnet's determinism invariants and bounds the
// data plane's per-packet work. It walks the module's packages, runs the
// analyzers in internal/analysis, and prints findings as file:line:col
// diagnostics or a SARIF 2.1.0 log.
//
// Usage:
//
//	pmnetlint [flags] [./... | package-dir ...]
//
// Flags:
//
//	-format text|sarif   output format (default text)
//	-baseline FILE       suppress findings recorded in this JSON baseline
//	-write-baseline FILE write current findings to FILE as a baseline, exit 0
//
// Exit codes (machine-readable, for CI):
//
//	0  no findings (or every finding baselined)
//	1  findings reported
//	2  usage, parse or type-check error
//
// Analyzers:
//
//   - wallclock:    no time.Now/Sleep/After/... in model code
//   - randsource:   no math/rand or crypto/rand imports in model code
//   - maprange:     no order-sensitive map iteration in event-ordering packages
//   - boundedwork:  dataplane loop bounds are constants, parameter lengths, or table sizes
//   - syncpool:     buffer pools in model code go through the deterministic pool
//   - sharedstate:  no cross-cell shared mutable state in the sharded simulator
//   - ignoreaudit:  every //pmnetlint:ignore still suppresses a real finding
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//pmnetlint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pmnet/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pmnetlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	format := flags.String("format", "text", "output format: text or sarif")
	baselinePath := flags.String("baseline", "", "JSON baseline file; findings it covers are not reported")
	writeBaseline := flags.String("write-baseline", "", "write current findings to this JSON baseline file and exit 0")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "pmnetlint: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "pmnetlint:", err)
		return 2
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "pmnetlint:", err)
		return 2
	}
	loader := analysis.NewLoader(root, modPath)

	var targets []analysis.PackageDir
	all := flags.NArg() == 0
	for _, a := range flags.Args() {
		if a == "./..." || a == "..." {
			all = true
			continue
		}
		abs, err := filepath.Abs(a)
		if err != nil {
			fmt.Fprintf(stderr, "pmnetlint: %s: %v\n", a, err)
			return 2
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || rel == ".." || filepath.IsAbs(rel) || (len(rel) > 2 && rel[:3] == "..\x2f") {
			fmt.Fprintf(stderr, "pmnetlint: %s is outside module %s\n", a, modPath)
			return 2
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, analysis.PackageDir{Dir: abs, ImportPath: ip})
	}
	if all {
		pkgs, err := loader.ModulePackages()
		if err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			return 2
		}
		targets = pkgs
	}

	var findings []analysis.Finding
	status := 0
	for _, t := range targets {
		pkg, err := loader.LoadDir(t.Dir, t.ImportPath)
		if err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			status = 2
			continue
		}
		findings = append(findings, analysis.RunPackage(pkg, analysis.ForPackage(modPath, t.ImportPath))...)
	}

	// Baseline and SARIF artifacts are committed/uploaded: key them on
	// module-root-relative slash paths so they are stable across checkouts.
	rootRel := make([]analysis.Finding, len(findings))
	for i, f := range findings {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		rootRel[i] = f
	}

	if *writeBaseline != "" {
		bf, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			return 2
		}
		werr := analysis.WriteBaseline(bf, rootRel)
		if cerr := bf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "pmnetlint:", werr)
			return 2
		}
		fmt.Fprintf(stderr, "pmnetlint: wrote %d finding(s) to baseline %s\n", len(rootRel), *writeBaseline)
		return status
	}

	if *baselinePath != "" {
		bf, err := os.Open(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			return 2
		}
		baseline, err := analysis.ReadBaseline(bf)
		bf.Close()
		if err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			return 2
		}
		rootRel = baseline.Filter(rootRel)
	}

	if *format == "sarif" {
		if err := analysis.WriteSARIF(stdout, rootRel); err != nil {
			fmt.Fprintln(stderr, "pmnetlint:", err)
			return 2
		}
	} else {
		for _, f := range rootRel {
			// Text diagnostics are for humans at the terminal: print paths
			// relative to where they ran the tool.
			abs := filepath.Join(root, filepath.FromSlash(f.Pos.Filename))
			if rel, err := filepath.Rel(cwd, abs); err == nil {
				f.Pos.Filename = rel
			}
			fmt.Fprintln(stdout, f)
		}
	}
	if status != 0 {
		return status
	}
	if len(rootRel) > 0 {
		fmt.Fprintf(stderr, "pmnetlint: %d finding(s)\n", len(rootRel))
		return 1
	}
	return 0
}
