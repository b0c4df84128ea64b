package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// PersistorderAnalyzer enforces PMNet's headline guarantee — data is durable
// *before* the acknowledgement leaves the device (PAPER §IV-B, Figure 3
// step 6') — as a static property of server/dataplane handler code: on every
// control-flow path from a pmem write (pmem.Device.WriteAt, or a buffered
// pmobj transaction write; a Device.WriteThrough is written and persisted in
// one call, so it is neither a write nor a barrier) to an ACK/response send (netsim.Host.Send,
// netsim.Network.Transmit), a persist barrier (Device.Persist/PersistAll, or
// pmobj Tx.Commit) must intervene.
//
// persistcover asks the coarse question "does this function persist at all";
// persistorder asks the ordering question on the CFG: a function that
// persists on one branch but ACKs with the write still volatile on another
// is exactly the crash window that breaks the guarantee, and it passes
// persistcover.
//
// The analysis is a forward may-analysis over the function's CFG (cfg.go /
// dataflow.go), with facts propagated through direct same-package callees:
// each callee gets a summary — does it send while the caller's writes could
// still be pending, does it clear pending writes on every path, does it
// leave writes of its own unpersisted — computed by running the same
// dataflow over the callee's CFG (summaries are memoized; cycles fall back
// to a neutral summary). Function literals are analyzed as independent
// units: their bodies run at an unrelated virtual time (CPU completions,
// timer callbacks), so facts cannot flow into them linearly.
var PersistorderAnalyzer = &Analyzer{
	Name: "persistorder",
	Doc:  "on every path from a pmem write to an ACK/response send, a persist barrier must intervene",
	Scope: func(modulePath, pkgPath string) bool {
		if fixtureCorpus(modulePath, pkgPath) {
			return true
		}
		switch pkgPath {
		case modulePath + "/internal/server", modulePath + "/internal/dataplane":
			return true
		}
		return false
	},
	Run: runPersistorder,
}

// poEffect classifies what one call does to the persistence state.
type poEffect uint8

const (
	poNone    poEffect = iota
	poWrite            // volatile pmem write (or buffered tx write)
	poBarrier          // persist barrier: pending writes become durable
	poSend             // packet leaves toward the client/server
	poCallee           // same-package callee: consult its summary
)

// poSummary is the one-level-deep interprocedural summary of a callee.
type poSummary struct {
	sendsWhileCallerPending bool // may send before any barrier clears caller state
	clearsCaller            bool // every exit path passed a barrier
	leavesPending           bool // may return with its own writes unpersisted
}

// poFact is the dataflow fact: the set of writes (by position) that may be
// unpersisted at this program point, plus — in summary mode — whether the
// caller's pending writes may still be uncovered.
type poFact struct {
	pending map[token.Pos]bool
	caller  bool
}

func (f poFact) withWrite(pos token.Pos) poFact {
	p := make(map[token.Pos]bool, len(f.pending)+1)
	for k := range f.pending {
		p[k] = true
	}
	p[pos] = true
	return poFact{pending: p, caller: f.caller}
}

func (f poFact) cleared() poFact { return poFact{} }

func poJoin(a, b poFact) poFact {
	if len(b.pending) == 0 && !b.caller {
		return poFact{pending: a.pending, caller: a.caller}
	}
	if len(a.pending) == 0 && !a.caller {
		return poFact{pending: b.pending, caller: b.caller}
	}
	p := make(map[token.Pos]bool, len(a.pending)+len(b.pending))
	for k := range a.pending {
		p[k] = true
	}
	for k := range b.pending {
		p[k] = true
	}
	return poFact{pending: p, caller: a.caller || b.caller}
}

func poEqual(a, b poFact) bool {
	if a.caller != b.caller || len(a.pending) != len(b.pending) {
		return false
	}
	for k := range a.pending {
		if !b.pending[k] {
			return false
		}
	}
	return true
}

// persistorder runs per package: build the FuncDecl index, then analyze
// every declared function body and every function literal as a root.
func runPersistorder(pass *Pass) {
	pa := &poAnalysis{
		pass:       pass,
		decls:      make(map[*types.Func]*ast.FuncDecl),
		summaries:  make(map[*types.Func]*poSummary),
		inProgress: make(map[*types.Func]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				pa.decls[obj] = fd
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pa.analyze(fd.Body, poFact{}, true)
		}
		// Function literals, wherever they nest.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				pa.analyze(fl.Body, poFact{}, true)
			}
			return true
		})
	}
}

type poAnalysis struct {
	pass       *Pass
	decls      map[*types.Func]*ast.FuncDecl
	summaries  map[*types.Func]*poSummary
	inProgress map[*types.Func]bool
}

// analyze runs the dataflow over one body. With report=true, violations are
// reported via the pass; the returned summary describes the body for use at
// call sites (entry.caller seeds summary mode).
func (pa *poAnalysis) analyze(body *ast.BlockStmt, entry poFact, report bool) *poSummary {
	g := buildCFG(body)
	sum := &poSummary{}
	in := forward(g, flowFuncs[poFact]{
		entry: entry,
		join:  poJoin,
		equal: poEqual,
		transfer: func(b *block, f poFact) poFact {
			return pa.transfer(b, f, nil, sum)
		},
	})
	// Reporting pass: re-run each reachable block's transfer with its final
	// input fact, this time emitting diagnostics.
	if report {
		for _, b := range g.blocks {
			f, ok := in[b]
			if !ok {
				continue
			}
			pa.transfer(b, f, pa.report, sum)
		}
	}
	exit, reached := in[g.exit]
	if reached {
		sum.clearsCaller = !exit.caller
		sum.leavesPending = len(exit.pending) > 0
	} else {
		// Exit unreachable (infinite loop / always panics): nothing escapes.
		sum.clearsCaller = true
	}
	return sum
}

// report emits one finding for a send reached with writes pending.
func (pa *poAnalysis) report(call *ast.CallExpr, f poFact, via string) {
	lines := make([]int, 0, len(f.pending))
	for pos := range f.pending {
		lines = append(lines, pa.pass.Pkg.Fset.Position(pos).Line)
	}
	sort.Ints(lines)
	var where string
	switch {
	case len(lines) == 1:
		where = fmt.Sprintf("the pmem write at line %d is", lines[0])
	case len(lines) > 1:
		parts := make([]string, len(lines))
		for i, l := range lines {
			parts[i] = fmt.Sprintf("%d", l)
		}
		where = fmt.Sprintf("pmem writes at lines %s are", strings.Join(parts, ", "))
	default: // caller-pending only: summary mode, reported at the real root
		return
	}
	pa.pass.Reportf(call.Pos(),
		"%s while %s not yet persisted: a Persist/PersistAll (or tx Commit) must intervene on every path from write to send (durable-before-ACK, PAPER §IV-B)",
		via, where)
}

// transfer pushes a fact through one block. reportFn, when non-nil, receives
// every send performed with writes pending.
func (pa *poAnalysis) transfer(b *block, f poFact, reportFn func(*ast.CallExpr, poFact, string), sum *poSummary) poFact {
	for _, n := range b.nodes {
		inspectCalls(n, func(call *ast.CallExpr) {
			effect, callee := pa.classify(call)
			switch effect {
			case poWrite:
				f = f.withWrite(call.Pos())
			case poBarrier:
				f = f.cleared()
			case poSend:
				if f.caller {
					sum.sendsWhileCallerPending = true
				}
				if reportFn != nil && len(f.pending) > 0 {
					reportFn(call, f, "ACK/response is sent")
				}
			case poCallee:
				s := pa.summaryOf(callee)
				if s.sendsWhileCallerPending {
					if f.caller {
						sum.sendsWhileCallerPending = true
					}
					if reportFn != nil && len(f.pending) > 0 {
						reportFn(call, f, fmt.Sprintf("call to %s sends an ACK/response", callee.Name()))
					}
				}
				if s.clearsCaller {
					f = f.cleared()
				}
				if s.leavesPending {
					f = f.withWrite(call.Pos())
				}
			}
		})
	}
	return f
}

// summaryOf computes (and memoizes) a callee's summary by running the same
// dataflow over its body with caller-pending seeded at entry. Recursion —
// direct or mutual — falls back to the neutral summary.
func (pa *poAnalysis) summaryOf(fn *types.Func) *poSummary {
	if s, ok := pa.summaries[fn]; ok {
		return s
	}
	if pa.inProgress[fn] {
		return &poSummary{}
	}
	fd := pa.decls[fn]
	if fd == nil {
		return &poSummary{}
	}
	pa.inProgress[fn] = true
	s := pa.analyze(fd.Body, poFact{caller: true}, false)
	delete(pa.inProgress, fn)
	pa.summaries[fn] = s
	return s
}

// classify maps one call to its persistence effect. For poCallee the
// resolved *types.Func is returned as well.
func (pa *poAnalysis) classify(call *ast.CallExpr) (poEffect, *types.Func) {
	fn := calleeFunc(pa.pass.Pkg.Info, call)
	if fn == nil {
		return poNone, nil
	}
	if pkgBase, recv := methodRecv(fn); recv != "" {
		switch {
		case pkgBase == "pmem" && recv == "Device":
			switch fn.Name() {
			case "WriteAt":
				return poWrite, nil
			case "Persist", "PersistAll":
				return poBarrier, nil
			case "WriteThrough", "WriteThroughGroup":
				// A write and the persist of exactly its range: it leaves
				// nothing pending and clears nothing pending before it.
				return poNone, nil
			}
		case pkgBase == "pmobj" && recv == "Tx":
			switch fn.Name() {
			case "WriteU64", "WriteBytes", "SetRoot", "Alloc", "Free":
				return poWrite, nil
			case "Commit", "Abort":
				return poBarrier, nil
			}
		case pkgBase == "pmobj" && recv == "Arena":
			if fn.Name() == "Update" { // runs the tx and commits
				return poBarrier, nil
			}
		case pkgBase == "netsim" && recv == "Host":
			if fn.Name() == "Send" {
				return poSend, nil
			}
		case pkgBase == "netsim" && recv == "Network":
			switch fn.Name() {
			case "Transmit", "TransmitAfter":
				return poSend, nil
			}
		}
	}
	// Same-package callee with a known body: summary-based propagation.
	if fn.Pkg() == pa.pass.Pkg.Types && pa.decls[fn] != nil {
		return poCallee, fn
	}
	return poNone, nil
}

// calleeFunc resolves the *types.Func a call invokes (nil for calls of
// function-typed values, builtins, and type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// methodRecv returns the defining package's base name and the receiver type
// name of a method ("" for plain functions).
func methodRecv(fn *types.Func) (pkgBase, recvType string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return path.Base(named.Obj().Pkg().Path()), named.Obj().Name()
}

// inspectCalls visits every call expression under n in pre-order, without
// descending into function literals (each FuncLit is its own analysis root).
func inspectCalls(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := x.(*ast.CallExpr); ok {
			f(c)
		}
		return true
	})
}
