package capi_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSurface guards the two ways this module grows unnoticed: an internal
// package that nothing uses any more, and the public package gaining an
// exported name without anyone deciding it should.
func TestSurface(t *testing.T) {
	t.Run("every internal package is imported", func(t *testing.T) {
		// linttest is the analysis-test harness: internal/lint's tests are
		// its only importer, by design.
		imported := map[string]bool{"capi/internal/lint/linttest": true}
		var internal []string
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if pkg := "capi/" + dir; strings.HasPrefix(dir, "internal/") && !slices.Contains(internal, pkg) {
				internal = append(internal, pkg)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				imported[p] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(internal) == 0 {
			t.Fatal("found no internal packages: the walk is broken")
		}
		for _, pkg := range internal {
			if !imported[pkg] {
				t.Errorf("%s has no non-test importer: use it or delete it", pkg)
			}
		}
	})

	t.Run("exported names match testdata/api.golden", func(t *testing.T) {
		files, err := filepath.Glob("*.go")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		add := func(kind string, id *ast.Ident) {
			if id.IsExported() {
				got = append(got, kind+" "+id.Name)
			}
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add("func", d.Name)
					} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(strings.TrimPrefix(recv, "*")) {
						add("method ("+recv+")", d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add("type", s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(d.Tok.String(), id)
							}
						}
					}
				}
			}
		}
		slices.Sort(got)
		want, err := os.ReadFile("testdata/api.golden")
		if err != nil {
			t.Fatal(err)
		}
		if text := strings.Join(got, "\n") + "\n"; text != string(want) {
			t.Errorf("package capi's exported names differ from testdata/api.golden; if the change is meant, make the file read:\n%s", text)
		}
	})
}

// receiverName renders a method receiver's type: "T" or "*T".
func receiverName(e ast.Expr) string {
	switch r := e.(type) {
	case *ast.StarExpr:
		return "*" + receiverName(r.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverName(r.X)
	case *ast.Ident:
		return r.Name
	}
	return fmt.Sprintf("%T", e)
}
