package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, in the image of golang.org/x/tools'
// go/analysis.Analyzer. Run receives a Pass holding every loaded package of
// the module, so analyzers may reason across package boundaries (the hotpath
// traversal needs that).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -checks selections.
	Name string
	// Doc is the one-line description shown by capi-lint -help.
	Doc string
	// Run reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries the loaded module state into one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	// Fset is the single file set every loaded package was parsed into.
	Fset *token.FileSet
	// Packages are the target packages in deterministic (import path) order.
	Packages []*Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Reportf records a finding at pos unless a suppression marker covers the
// line. marker is the analyzer's escape-hatch directive (e.g.
// "//capi:hotpath-ok"); an empty marker means the finding cannot be
// suppressed.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// marks caches the per-file //capi: directive lines (lazily built).
	marks map[*ast.File]fileMarks
}

// fileMarks indexes a file's //capi: directives by line.
type fileMarks struct {
	// byLine maps a line number to the directives whose comment sits on
	// that line.
	byLine map[int][]string
}

// Annotation directives. Function annotations live in the function's doc
// comment; field annotations in the field's doc or trailing line comment;
// suppressions on the offending line or the line directly above it.
const (
	MarkHotpath     = "//capi:hotpath"
	MarkColdpath    = "//capi:coldpath"
	MarkHotpathOK   = "//capi:hotpath-ok"
	MarkGuardedBy   = "//capi:guardedby"
	MarkLocked      = "//capi:locked"
	MarkUnguardedOK = "//capi:unguarded-ok"
	MarkPanicOK     = "//capi:panic-ok"
)

// commentDirective extracts the //capi: directive of one comment line, or
// "" when the line is no directive. The directive is the comment text up to
// the first space (the rest is the human reason).
func commentDirective(text string) string {
	if !strings.HasPrefix(text, "//capi:") {
		return ""
	}
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return text[:i]
	}
	return text
}

// directiveArg returns the first argument of a directive comment line
// ("//capi:guardedby mu" → "mu"), or "".
func directiveArg(text string) string {
	rest := strings.TrimSpace(strings.TrimPrefix(text, commentDirective(text)))
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// buildMarks indexes every //capi: directive of the file by line.
func (pkg *Package) buildMarks(fset *token.FileSet, f *ast.File) fileMarks {
	fm := fileMarks{byLine: map[int][]string{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d := commentDirective(c.Text); d != "" {
				line := fset.Position(c.Slash).Line
				fm.byLine[line] = append(fm.byLine[line], c.Text)
			}
		}
	}
	return fm
}

func (pkg *Package) fileMarks(fset *token.FileSet, f *ast.File) fileMarks {
	if pkg.marks == nil {
		pkg.marks = map[*ast.File]fileMarks{}
	}
	fm, ok := pkg.marks[f]
	if !ok {
		fm = pkg.buildMarks(fset, f)
		pkg.marks[f] = fm
	}
	return fm
}

// Suppressed reports whether a diagnostic at pos is silenced by the given
// suppression directive sitting on the same line or the line directly above.
func (pkg *Package) Suppressed(fset *token.FileSet, f *ast.File, pos token.Pos, directive string) bool {
	fm := pkg.fileMarks(fset, f)
	line := fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range fm.byLine[l] {
			if commentDirective(text) == directive {
				return true
			}
		}
	}
	return false
}

// FuncAnnotations returns the //capi: directives in a function's doc
// comment, mapped directive → argument.
func FuncAnnotations(decl *ast.FuncDecl) map[string]string {
	out := map[string]string{}
	if decl.Doc == nil {
		return out
	}
	for _, c := range decl.Doc.List {
		if d := commentDirective(c.Text); d != "" {
			out[d] = directiveArg(c.Text)
		}
	}
	return out
}

// FieldAnnotation returns the argument of the given directive on a struct
// field (doc comment or trailing line comment), and whether it is present.
func FieldAnnotation(field *ast.Field, directive string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if commentDirective(c.Text) == directive {
				return directiveArg(c.Text), true
			}
		}
	}
	return "", false
}

// FileOf returns the *ast.File of the package containing pos.
func (pkg *Package) FileOf(pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// sortDiagnostics orders findings by file, line, column, analyzer, message
// and drops exact duplicates.
func sortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	var prev Diagnostic
	for i, d := range diags {
		if i > 0 && d == prev {
			continue
		}
		out = append(out, d)
		prev = d
	}
	return out
}

// Run executes the analyzers over the loaded packages and returns the
// sorted, deduplicated findings.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Packages: pkgs, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s: %w", a.Name, err)
		}
	}
	return sortDiagnostics(diags), nil
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotpathAnalyzer, AtomicFieldAnalyzer, GuardedByAnalyzer, NoExitAnalyzer}
}

// Select returns the analyzers whose names appear in the comma-separated
// list ("" or "all" selects the whole suite). Unknown names are an error,
// listing the registered suite.
func Select(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if list == "" || list == "all" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (registered: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
