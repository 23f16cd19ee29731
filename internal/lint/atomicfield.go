package lint

import (
	"go/ast"
	"go/types"
)

// AtomicFieldAnalyzer keeps every atomic access typed: it reports each use
// of a package-level sync/atomic function (atomic.AddInt64(&s.n, 1),
// atomic.LoadPointer, …). A typed atomic (atomic.Int64, atomic.Value,
// atomic.Pointer[T]) cannot be read or written plainly, so the mixed-access
// bug class — one site atomic, another plain — cannot be written at all.
var AtomicFieldAnalyzer = &Analyzer{
	Name: "atomicfield",
	Doc:  "atomic accesses go through typed atomics, never sync/atomic package functions",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, pkg := range pass.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil &&
					fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
					pass.Reportf(id.Pos(), "sync/atomic.%s: use a typed atomic (atomic.Int64, atomic.Pointer[T], …), which cannot be accessed plainly", fn.Name())
				}
				return true
			})
		}
	}
	return nil
}
