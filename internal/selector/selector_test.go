package selector

import (
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"

	"capi/internal/callgraph"
)

// testGraph builds:
//
//	main -> driver -> kernel (flops 20, loop 2)
//	main -> util   (inline, 2 stmts)
//	main -> MPI_Send (system header)
//	driver -> MPI_Send
//	kernel -> helper (system header, inline)
func testGraph() *callgraph.Graph { return testBuilder().Graph() }

func testBuilder() *callgraph.Builder {
	b := callgraph.NewBuilder("t", "main")
	b.Add("main", callgraph.Meta{Statements: 10, Unit: "exe", TU: "main.cc"})
	b.Add("driver", callgraph.Meta{Statements: 6, Unit: "exe", TU: "drv.cc"})
	b.Add("kernel", callgraph.Meta{Statements: 40, Flops: 20, LoopDepth: 2, Cyclomatic: 5, LOC: 60, Unit: "libk.so", TU: "k.cc"})
	b.Add("util", callgraph.Meta{Statements: 2, Inline: true, Unit: "exe", TU: "u.h"})
	b.Add("MPI_Send", callgraph.Meta{SystemHeader: true, Unit: "libmpi.so"})
	b.Add("helper", callgraph.Meta{SystemHeader: true, Inline: true, Unit: "libk.so"})
	b.Edge("main", "driver")
	b.Edge("driver", "kernel")
	b.Edge("main", "util")
	b.Edge("main", "MPI_Send")
	b.Edge("driver", "MPI_Send")
	b.Edge("kernel", "helper")
	return b
}

func eval(t *testing.T, name string, args ...Value) *callgraph.Set {
	t.Helper()
	g := testGraph()
	// If the caller passed sets, they are bound to their own graph; for
	// convenience the helper only supports string/number prefixes plus a
	// trailing universe set.
	ctx := &Context{Graph: g}
	def := NewRegistry().Lookup(name)
	if def == nil {
		t.Fatalf("selector %q not registered", name)
	}
	vals := make([]Value, 0, len(args)+1)
	vals = append(vals, args...)
	vals = append(vals, g.UniverseSet())
	out, err := def.Eval(ctx, vals)
	if err != nil {
		t.Fatalf("eval %s: %v", name, err)
	}
	return out
}

func wantMembers(t *testing.T, s *callgraph.Set, want ...string) {
	t.Helper()
	if s.Count() != len(want) {
		t.Fatalf("got %v, want %v", s.Names(), want)
	}
	for _, n := range want {
		if !hasName(s, n) {
			t.Fatalf("got %v, missing %s", s.Names(), n)
		}
	}
}

func TestRegistryNamesAndDocs(t *testing.T) {
	r := NewRegistry()
	names := slices.Sorted(maps.Keys(r.defs))
	if len(names) < 15 {
		t.Fatalf("only %d selectors registered: %v", len(names), names)
	}
	for _, n := range names {
		if r.Lookup(n).Doc == "" {
			t.Errorf("selector %s has no doc", n)
		}
	}
	if r.Lookup("nope") != nil {
		t.Fatal("Lookup of unknown selector should be nil")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := NewRegistry()
	err := r.Register(&Def{Name: "join"})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestInSystemHeader(t *testing.T) {
	wantMembers(t, eval(t, "inSystemHeader"), "MPI_Send", "helper")
}

func TestInlineSpecified(t *testing.T) {
	wantMembers(t, eval(t, "inlineSpecified"), "util", "helper")
}

func TestMetricSelectors(t *testing.T) {
	wantMembers(t, eval(t, "flops", ">=", 10.0), "kernel")
	wantMembers(t, eval(t, "loopDepth", ">=", 1.0), "kernel")
	wantMembers(t, eval(t, "statements", ">", 6.0), "main", "kernel")
	wantMembers(t, eval(t, "loc", "==", 60.0), "kernel")
	wantMembers(t, eval(t, "cyclomatic", "!=", 0.0), "kernel")
	wantMembers(t, eval(t, "statements", "<", 3.0), "util", "MPI_Send", "helper")
	wantMembers(t, eval(t, "statements", "<=", 2.0), "util", "MPI_Send", "helper")
}

func TestCompareBadOperator(t *testing.T) {
	g := testGraph()
	def := NewRegistry().Lookup("flops")
	_, err := def.Eval(&Context{Graph: g}, []Value{"~~", 1.0, g.UniverseSet()})
	if err == nil || !strings.Contains(err.Error(), "comparison") {
		t.Fatalf("err = %v", err)
	}
}

func TestByName(t *testing.T) {
	wantMembers(t, eval(t, "byName", "^MPI_"), "MPI_Send")
	wantMembers(t, eval(t, "byName", "ker"), "kernel")
}

// TestMatcherEqualsRegexp: the literal-prefix shortcut never changes what a
// pattern matches — anchored or not, case-folded, alternated, empty.
func TestMatcherEqualsRegexp(t *testing.T) {
	pats := []string{"^MPI_", "MPI_", "^MPI_(Send|Recv)$", "(?i)^mpi_", "(?m)^MPI_", "MPI_|PMPI_", "^$", "", "_Send$", "^.PI_", "Foam::.*::solve", "a{2}b", "\\.C$", "^MPI_Send"}
	subjects := []string{"", "MPI_Send", "PMPI_Send", "mpi_send", "xMPI_", "MPI", "a\nMPI_Recv", "Foam::fvMatrix::solve", "aab", "ab", "solve.C", "MPI_Sendrecv"}
	for _, pat := range pats {
		match, err := matcher("byName", pat)
		if err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(pat)
		for _, s := range subjects {
			if match(s) != re.MatchString(s) {
				t.Errorf("pattern %q on %q: matcher says %v", pat, s, match(s))
			}
		}
	}
}

func TestByNameBadPattern(t *testing.T) {
	g := testGraph()
	def := NewRegistry().Lookup("byName")
	_, err := def.Eval(&Context{Graph: g}, []Value{"(", g.UniverseSet()})
	if err == nil {
		t.Fatal("expected regexp error")
	}
}

func TestByUnitAndByTU(t *testing.T) {
	wantMembers(t, eval(t, "byUnit", "libk.so"), "kernel", "helper")
	wantMembers(t, eval(t, "byTU", `\.cc$`), "main", "driver", "kernel")
}

func TestJoinSubtractIntersect(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	r := NewRegistry()
	a := setOf(g, "main", "driver")
	b := setOf(g, "driver", "kernel")

	out, err := r.Lookup("join").Eval(ctx, []Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "main", "driver", "kernel")

	out, err = r.Lookup("subtract").Eval(ctx, []Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "main")

	out, err = r.Lookup("intersect").Eval(ctx, []Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "driver")
}

func TestJoinNoArgs(t *testing.T) {
	g := testGraph()
	if _, err := NewRegistry().Lookup("join").Eval(&Context{Graph: g}, nil); err == nil {
		t.Fatal("join() should error")
	}
	if _, err := NewRegistry().Lookup("intersect").Eval(&Context{Graph: g}, nil); err == nil {
		t.Fatal("intersect() should error")
	}
}

func TestCallPathTo(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	targets := setOf(g, "MPI_Send")
	out, err := NewRegistry().Lookup("callPathTo").Eval(ctx, []Value{targets})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "main", "driver", "MPI_Send")
}

func TestCallPathToNoMain(t *testing.T) {
	b := testBuilder()
	b.Main = ""
	g := b.Graph()
	_, err := NewRegistry().Lookup("callPathTo").Eval(&Context{Graph: g}, []Value{setOf(g, "kernel")})
	if err == nil {
		t.Fatal("expected error without entry point")
	}
}

func TestCallPathFrom(t *testing.T) {
	g := testGraph()
	out, err := NewRegistry().Lookup("callPathFrom").Eval(&Context{Graph: g}, []Value{setOf(g, "driver")})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "driver", "kernel", "MPI_Send", "helper")
}

func TestCallersCallees(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	r := NewRegistry()
	out, err := r.Lookup("callers").Eval(ctx, []Value{setOf(g, "MPI_Send")})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "main", "driver")

	out, err = r.Lookup("callees").Eval(ctx, []Value{setOf(g, "main")})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "driver", "util", "MPI_Send")
}

func TestCoarseSelector(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	in := setOf(g, "driver", "kernel")
	// kernel's only caller is driver -> pruned without a critical set.
	out, err := NewRegistry().Lookup("coarse").Eval(ctx, []Value{in})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "driver")
	// With kernel marked critical it stays.
	out, err = NewRegistry().Lookup("coarse").Eval(ctx, []Value{in, setOf(g, "kernel")})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "driver", "kernel")
}

func TestStatementAggregation(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	// Aggregates from main(10): driver 16, kernel 56, util 12.
	out, err := NewRegistry().Lookup("statementAggregation").Eval(ctx, []Value{50.0, g.UniverseSet()})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers(t, out, "kernel", "helper") // helper: 56+0 via kernel
}

func TestArgumentTypeErrors(t *testing.T) {
	g := testGraph()
	ctx := &Context{Graph: g}
	r := NewRegistry()
	cases := []struct {
		sel  string
		args []Value
	}{
		{"subtract", []Value{g.UniverseSet()}},             // missing 2nd set
		{"subtract", []Value{"x", g.UniverseSet()}},        // wrong type
		{"flops", []Value{1.0, 1.0, g.UniverseSet()}},      // cmp not string
		{"flops", []Value{">=", "x", g.UniverseSet()}},     // n not number
		{"flops", []Value{">=", 1.0}},                      // missing set
		{"byName", []Value{g.UniverseSet(), "x"}},          // swapped args
		{"statementAggregation", []Value{g.UniverseSet()}}, // missing threshold
	}
	for _, c := range cases {
		if _, err := r.Lookup(c.sel).Eval(ctx, c.args); err == nil {
			t.Errorf("%s(%v) should fail", c.sel, c.args)
		}
	}
}

// setOf builds a set of the named nodes; unknown names are ignored.
func setOf(g *callgraph.Graph, names ...string) *callgraph.Set {
	s := g.NewSet()
	for _, name := range names {
		if n := g.Node(name); n != nil {
			s.Add(n)
		}
	}
	return s
}

// hasName reports membership by node name.
func hasName(s *callgraph.Set, name string) bool { return s.Has(s.Graph().Node(name)) }
