package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer enforces the allocation/lock discipline of the event
// dispatch path. Functions annotated //capi:hotpath and their transitive
// statically-resolvable in-module callees must not allocate, take locks,
// spawn goroutines, touch channels, or call into stdlib packages that may
// do any of that — nor hash: the dispatch path indexes dense tables, so a
// map read or a range over a map there is an error like the rest. Dynamic
// calls (interface methods, func values) stop the traversal: they are the designed backend boundary. //capi:coldpath on a
// callee marks a reviewed out-of-line slow path and stops the traversal;
// //capi:hotpath-ok on (or directly above) an offending line waives one
// reviewed operation.
//
// The analyzer additionally polices handler registration: passing a
// function literal, or any in-module function not annotated //capi:hotpath,
// to a method named SetHandler is an error — so removing the annotation
// from the dispatch path is itself caught.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//capi:hotpath functions and their in-module callees must not allocate, lock, or block",
	Run:  runHotpath,
}

// hotpathAllowedPkgs are the stdlib packages hot code may call into: all
// operations are branch-free register/memory work.
var hotpathAllowedPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"unsafe":      true,
}

// hotpathFlaggedBuiltins allocate (or, for print/println, write to stderr).
var hotpathFlaggedBuiltins = map[string]string{
	"make":    "make allocates",
	"new":     "new allocates",
	"append":  "append may grow and allocate",
	"delete":  "map delete rehashes",
	"clear":   "clear walks and rewrites the container",
	"print":   "print writes to stderr",
	"println": "println writes to stderr",
}

// nonBlockingSyncMethods never block or allocate, so deferred unlocks and
// WaitGroup.Done stay legal on the hot path even though package sync is
// otherwise off-limits.
var nonBlockingSyncMethods = map[string]bool{
	"Unlock":  true,
	"RUnlock": true,
	"Done":    true,
}

func runHotpath(pass *Pass) error {
	ix := buildIndex(pass)

	type visit struct {
		fi   *funcInfo
		root string // short name of the //capi:hotpath root that reaches it
	}
	var queue []visit
	for _, pkg := range pass.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := ix.lookup(fn)
				if fi == nil {
					continue
				}
				if _, hot := fi.ann[MarkHotpath]; hot {
					queue = append(queue, visit{fi: fi, root: shortFuncName(fn)})
				}
				checkSetHandlerCalls(pass, ix, fi)
			}
		}
	}

	visited := map[string]bool{}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if visited[v.fi.key] {
			continue
		}
		visited[v.fi.key] = true
		callees := checkHotFunc(pass, ix, v.fi, v.root)
		for _, c := range callees {
			queue = append(queue, visit{fi: c, root: v.root})
		}
	}
	return nil
}

// shortFuncName renders a function for diagnostics: "Type.Method" or "Fn".
func shortFuncName(fn *types.Func) string {
	sig := fn.Signature()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// checkSetHandlerCalls enforces the registration rule in every function.
func checkSetHandlerCalls(pass *Pass, ix *moduleIndex, fi *funcInfo) {
	if fi.decl.Body == nil {
		return
	}
	info := fi.pkg.Info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee.Name() != "SetHandler" || !ix.inModule(callee.Pkg()) {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		report := func(format string, args ...any) {
			if f := fi.pkg.FileOf(arg.Pos()); f != nil &&
				fi.pkg.Suppressed(pass.Fset, f, arg.Pos(), MarkHotpathOK) {
				return
			}
			pass.Reportf(arg.Pos(), format, args...)
		}
		switch a := arg.(type) {
		case *ast.FuncLit:
			report("handler registered with SetHandler is a function literal; register a named method annotated //capi:hotpath")
		default:
			h := handlerFunc(info, a)
			if h == nil {
				return true // nil handler, variable, or out-of-module value
			}
			hi := ix.lookup(h)
			if hi == nil {
				return true
			}
			if _, hot := hi.ann[MarkHotpath]; !hot {
				report("handler %s registered with SetHandler is not annotated //capi:hotpath", shortFuncName(h))
			}
		}
		return true
	})
}

// handlerFunc resolves a SetHandler argument to the function it names
// (plain reference or method value), or nil.
func handlerFunc(info *types.Info, arg ast.Expr) *types.Func {
	switch a := arg.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[a].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[a]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[a.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkHotFunc scans one function body for hot-path violations and returns
// the in-module callees the traversal should continue into.
func checkHotFunc(pass *Pass, ix *moduleIndex, fi *funcInfo, root string) []*funcInfo {
	if fi.decl.Body == nil {
		return nil
	}
	info := fi.pkg.Info
	self := shortFuncName(fi.fn)

	report := func(pos token.Pos, what string) {
		if f := fi.pkg.FileOf(pos); f != nil &&
			fi.pkg.Suppressed(pass.Fset, f, pos, MarkHotpathOK) {
			return
		}
		if root == self {
			pass.Reportf(pos, "hot path (//capi:hotpath %s): %s", self, what)
		} else {
			pass.Reportf(pos, "hot path (%s, reached from //capi:hotpath %s): %s", self, root, what)
		}
	}

	// calledFuns holds the expressions in call position, so method-value
	// detection does not flag ordinary method calls.
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calledFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	isMap := func(e ast.Expr) bool {
		t := info.Types[e].Type
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Map)
		return ok
	}
	// mapWrite reports a store through a map index and remembers the index
	// expression, so the read rule below does not flag the same entry twice.
	written := map[*ast.IndexExpr]bool{}
	mapWrite := func(target ast.Expr) {
		if idx, ok := ast.Unparen(target).(*ast.IndexExpr); ok && isMap(idx.X) {
			written[idx] = true
			report(target.Pos(), "map write may rehash and allocate")
		}
	}

	var callees []*funcInfo
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callees = append(callees, checkHotCall(info, ix, n, report)...)
		case *ast.IndexExpr:
			if isMap(n.X) && !written[n] {
				report(n.Pos(), "map read hashes the key; index a dense table instead")
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement spawns a goroutine")
		case *ast.SendStmt:
			report(n.Pos(), "channel send may block")
		case *ast.SelectStmt:
			report(n.Pos(), "select may block")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				report(n.Pos(), "channel receive may block")
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Chan:
					report(n.Pos(), "range over channel may block")
				case *types.Map:
					report(n.Pos(), "range over map walks the hash table")
				}
			}
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure")
			return false // do not descend: the closure body is not the hot path
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.Types[n].Type; t != nil && isString(t) {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mapWrite(lhs)
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if lt := info.Types[n.Lhs[i]].Type; boxes(info, lt, n.Rhs[i]) {
						report(n.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
					}
				}
			}
		case *ast.IncDecStmt:
			mapWrite(n.X)
		case *ast.ReturnStmt:
			results := fi.fn.Signature().Results()
			if len(n.Results) == results.Len() {
				for i, r := range n.Results {
					if boxes(info, results.At(i).Type(), r) {
						report(r.Pos(), "return boxes a concrete value into an interface")
					}
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !calledFuns[ast.Expr(n)] {
				report(n.Pos(), "method value allocates a closure")
			}
		}
		return true
	})
	return callees
}

// checkHotCall classifies one call expression; returns in-module callees to
// traverse into.
func checkHotCall(info *types.Info, ix *moduleIndex, call *ast.CallExpr, report func(token.Pos, string)) []*funcInfo {
	if b := builtinOf(info, call); b != "" {
		if msg, bad := hotpathFlaggedBuiltins[b]; bad {
			report(call.Pos(), msg)
		}
		return nil
	}
	if target, ok := isConversion(info, call); ok {
		checkHotConversion(info, call, target, report)
		return nil
	}

	// Interface boxing at the call boundary, for every call with a known
	// signature (including dynamic ones).
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			checkCallBoxing(info, call, sig, report)
		}
	}

	callee := calleeOf(info, call)
	if callee == nil {
		// Dynamic call: interface method or func value — the designed
		// backend boundary; the traversal stops here.
		return nil
	}
	pkg := callee.Pkg()
	if pkg == nil { // error.Error, unsafe builtins
		return nil
	}
	if ix.inModule(pkg) {
		fi := ix.lookup(callee)
		if fi == nil {
			report(call.Pos(), fmt.Sprintf("call to %s: no source loaded, hot-path safety unverifiable", shortFuncName(callee)))
			return nil
		}
		if _, cold := fi.ann[MarkColdpath]; cold {
			return nil // reviewed out-of-line slow path
		}
		return []*funcInfo{fi}
	}
	if hotpathAllowedPkgs[pkg.Path()] {
		return nil
	}
	if pkg.Path() == "sync" && nonBlockingSyncMethods[callee.Name()] {
		return nil
	}
	report(call.Pos(), fmt.Sprintf("call to %s.%s may allocate, lock, or block", pkg.Path(), callee.Name()))
	return nil
}

// checkHotConversion flags the conversions that allocate.
func checkHotConversion(info *types.Info, call *ast.CallExpr, target types.Type, report func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	src := info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if types.IsInterface(target.Underlying()) {
		if boxes(info, target, call.Args[0]) {
			report(call.Pos(), "conversion boxes a concrete value into an interface")
		}
		return
	}
	if isString(target) && !isString(src) {
		report(call.Pos(), "conversion to string allocates")
		return
	}
	if sl, ok := target.Underlying().(*types.Slice); ok && isString(src) {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok &&
			(b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32) {
			report(call.Pos(), "conversion from string allocates")
		}
	}
}

// checkCallBoxing flags concrete→interface argument passing.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			report(arg.Pos(), "argument boxes a concrete value into an interface")
		}
	}
}

// boxes reports whether assigning src to an interface-typed destination
// heap-allocates: the destination is an interface and src's static type is
// a concrete, non-pointer-shaped, non-constant value.
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return false
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return false
	}
	if types.IsInterface(tv.Type.Underlying()) {
		return false
	}
	return !pointerShaped(tv.Type)
}

// pointerShaped reports whether values of t fit an interface word without a
// heap allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
