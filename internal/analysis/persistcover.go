package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// PersistcoverAnalyzer flags functions that write to a pmem.Device but can
// reach a return without any persist barrier: the classic missing-clwb bug
// that silently breaks crash durability (PAPER §V-A — data is durable only
// once a Persist covers it).
//
// The check is intraprocedural and conservative: a function that calls
// Device.WriteAt must also call Device.Persist or Device.PersistAll
// somewhere in its own body. Device.WriteThrough and WriteThroughGroup are a
// write and the persist of exactly its range in one call: nothing to cover,
// and no barrier for any other write. Helpers that intentionally delegate the
// barrier to their caller (write-many-then-persist-once batching) must say
// so with `//pmnetlint:ignore persistcover <reason>` on the write, which
// doubles as documentation of the durability contract.
var PersistcoverAnalyzer = &Analyzer{
	Name:  "persistcover",
	Doc:   "flag pmem writes with no persist barrier before return",
	Scope: modelCode,
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var writes []*ast.CallExpr
				persisted := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch deviceMethod(pass.Pkg.Info, call) {
					case "WriteAt":
						writes = append(writes, call)
					case "Persist", "PersistAll":
						persisted = true
					case "WriteThrough", "WriteThroughGroup":
						// Persisted by itself; covers nothing else.
					}
					return true
				})
				if persisted {
					continue
				}
				for _, w := range writes {
					pass.Reportf(w.Pos(),
						"pmem write is never persisted: no Persist/PersistAll on any path out of %s; data is not durable until a barrier covers it",
						fd.Name.Name)
				}
			}
		}
	},
}

// deviceMethod returns the method name if call invokes a method of the
// persistent-memory Device type (any package named "pmem", so the fixture
// corpus can carry its own miniature device), else "".
func deviceMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Device" || obj.Pkg() == nil || path.Base(obj.Pkg().Path()) != "pmem" {
		return ""
	}
	return fn.Name()
}
