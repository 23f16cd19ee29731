package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
	"testing"

	"capi/internal/lint"
	"capi/internal/lint/linttest"
)

// The four fixture suites: each testdata/src/<name>/ module seeds every
// violation class its analyzer owns (plus clean and escape-hatch cases),
// so a regression that stops a diagnostic from firing fails on the
// corresponding unmatched // want line.

func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata/src/hotpath", lint.HotpathAnalyzer)
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata/src/atomicfield", lint.AtomicFieldAnalyzer)
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, "testdata/src/guardedby", lint.GuardedByAnalyzer)
}

func TestNoExit(t *testing.T) {
	linttest.Run(t, "testdata/src/noexit", lint.NoExitAnalyzer)
}

// repo caches one whole-module load for the tests below: go list -export
// over every package takes a couple of seconds, so share it.
var repo struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*lint.Package
	err  error
}

func loadRepo(t *testing.T) (*token.FileSet, []*lint.Package) {
	t.Helper()
	repo.once.Do(func() {
		repo.fset, repo.pkgs, repo.err = lint.Load("../..", "./...")
	})
	if repo.err != nil {
		t.Fatalf("loading module: %v", repo.err)
	}
	return repo.fset, repo.pkgs
}

// TestRepoClean mirrors the CI gate: the full suite over the whole module
// must report nothing — every real violation is either fixed or carries a
// reviewed escape hatch.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	fset, pkgs := loadRepo(t)
	diags, err := lint.Run(fset, pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// hotRoots are the event-dispatch functions that must keep their
// //capi:hotpath annotation: losing one silently exempts that slice of
// the per-event path from the analyzer (and, for the XRay handler, trips
// the SetHandler registration rule as a second line of defense).
var hotRoots = []string{
	"capi/internal/xray.Runtime.Dispatch",
	"capi/internal/dyncapi.Runtime.dispatch",
	"capi/internal/dyncapi.pipeline.append",
	"capi/internal/dyncapi.Mux.OnEnter",
	"capi/internal/dyncapi.Mux.OnExit",
	"capi/internal/dyncapi.funcSampleState.admit",
	"capi/internal/dyncapi.sampleAccount.enter",
	"capi/internal/dyncapi.ExtraeBackend.OnEnter",
	"capi/internal/dyncapi.ExtraeBackend.OnExit",
	"capi/internal/trace.Buffer.Append",
	"capi/internal/adapt.Controller.OnEnter",
	"capi/internal/adapt.Controller.OnExit",
}

func TestDispatchPathAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	_, pkgs := loadRepo(t)
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, hot := lint.FuncAnnotations(fd)[lint.MarkHotpath]; !hot {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				annotated[funcKey(pkg.ImportPath, fn)] = true
			}
		}
	}
	for _, want := range hotRoots {
		if !annotated[want] {
			t.Errorf("%s must carry %s: it is part of the per-event dispatch path", want, lint.MarkHotpath)
		}
	}
}

// funcKey renders "pkgpath.Type.Method" (or "pkgpath.Func") to match the
// hotRoots table.
func funcKey(path string, fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := types.Unalias(rt).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return path + "." + name
}

func TestSelect(t *testing.T) {
	all, err := lint.Select("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("Select(all) = %d analyzers, err %v; want the suite of 4", len(all), err)
	}
	two, err := lint.Select("hotpath, noexit")
	if err != nil || len(two) != 2 || two[0].Name != "hotpath" || two[1].Name != "noexit" {
		t.Fatalf("Select(hotpath, noexit) = %v, err %v", two, err)
	}
	if _, err := lint.Select("bogus"); err == nil {
		t.Fatal("Select(bogus) succeeded; want an unknown-analyzer error")
	}
}
