package core

import (
	"strings"
	"testing"

	"capi/internal/callgraph"
	"capi/internal/spec"
)

// mpiGraph builds a small MPI-app-like graph:
//
//	main -> init -> MPI_Init
//	main -> loop -> compute(kernel: flops 20, loop 1) -> tiny (inline)
//	loop -> exchange -> MPI_Sendrecv
//	main -> teardown
func mpiGraph() *callgraph.Graph {
	b := callgraph.NewBuilder("t", "main")
	b.Add("main", callgraph.Meta{Statements: 20})
	b.Add("init", callgraph.Meta{Statements: 5})
	b.Add("loop", callgraph.Meta{Statements: 15})
	b.Add("compute", callgraph.Meta{Statements: 50, Flops: 20, LoopDepth: 1})
	b.Add("tiny", callgraph.Meta{Statements: 2, Inline: true})
	b.Add("exchange", callgraph.Meta{Statements: 8})
	b.Add("teardown", callgraph.Meta{Statements: 3})
	b.Add("MPI_Init", callgraph.Meta{SystemHeader: true})
	b.Add("MPI_Sendrecv", callgraph.Meta{SystemHeader: true})
	b.Edge("main", "init")
	b.Edge("init", "MPI_Init")
	b.Edge("main", "loop")
	b.Edge("loop", "compute")
	b.Edge("compute", "tiny")
	b.Edge("loop", "exchange")
	b.Edge("exchange", "MPI_Sendrecv")
	b.Edge("main", "teardown")
	return b.Graph()
}

type symbolSet map[string]bool

func (s symbolSet) HasSymbol(name string) bool { return s[name] }

// allSymbols reports every function as present (no inlining).
type allSymbols struct{}

func (allSymbols) HasSymbol(string) bool { return true }

func TestRunMPISpec(t *testing.T) {
	e := NewEngine(mpiGraph())
	src := `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`
	res, err := e.RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Call paths to MPI ops: main, init, loop, exchange (+ the MPI ops,
	// excluded as system headers).
	for _, want := range []string{"main", "init", "loop", "exchange"} {
		if !hasName(res.Final, want) {
			t.Fatalf("missing %s in %v", want, res.Final.Names())
		}
	}
	for _, not := range []string{"MPI_Init", "MPI_Sendrecv", "compute", "tiny", "teardown"} {
		if hasName(res.Final, not) {
			t.Fatalf("%s should not be selected", not)
		}
	}
	if res.SelectionTime <= 0 {
		t.Fatal("SelectionTime not recorded")
	}
	if _, ok := res.Named["mpi_comm"]; !ok {
		t.Fatal("named instance mpi_comm missing from result")
	}
}

func TestRunKernelsSpec(t *testing.T) {
	e := NewEngine(mpiGraph())
	src := `excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
subtract(callPathTo(%kernels), %excluded)
`
	res, err := e.RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main", "loop", "compute"} {
		if !hasName(res.Final, want) {
			t.Fatalf("missing %s in %v", want, res.Final.Names())
		}
	}
	if hasName(res.Final, "exchange") {
		t.Fatal("exchange is not on a kernel path")
	}
}

func TestInlineCompensation(t *testing.T) {
	g := mpiGraph()
	e := NewEngine(g)
	// compute got inlined away by the compiler: symbol missing. tiny too.
	syms := symbolSet{
		"main": true, "init": true, "loop": true,
		"exchange": true, "teardown": true,
		"MPI_Init": true, "MPI_Sendrecv": true,
		// "compute", "tiny" absent -> treated as inlined
	}
	src := `kernels = flops(">=", 10, loopDepth(">=", 1, %%))
%kernels
`
	res, err := e.RunSource(src, Options{Symbols: syms})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pre.Count() != 1 || !hasName(res.Pre, "compute") {
		t.Fatalf("pre = %v", res.Pre.Names())
	}
	if res.Selected.Count() != 0 {
		t.Fatalf("selected = %v, want empty", res.Selected.Names())
	}
	if len(res.RemovedInlined) != 1 || res.RemovedInlined[0] != "compute" {
		t.Fatalf("removed = %v", res.RemovedInlined)
	}
	// First non-inlined caller of compute is loop.
	if len(res.AddedCompensation) != 1 || res.AddedCompensation[0] != "loop" {
		t.Fatalf("added = %v", res.AddedCompensation)
	}
	if !hasName(res.Final, "loop") || hasName(res.Final, "compute") {
		t.Fatalf("final = %v", res.Final.Names())
	}
}

func TestInlineCompensationWalksThroughInlinedCallers(t *testing.T) {
	// main -> a (no symbol) -> b (no symbol, selected).
	b := callgraph.NewBuilder("g", "main")
	b.Add("main", callgraph.Meta{})
	b.Add("a", callgraph.Meta{})
	b.Add("b", callgraph.Meta{Flops: 99, LoopDepth: 1})
	b.Edge("main", "a")
	b.Edge("a", "b")
	g := b.Graph()
	syms := symbolSet{"main": true}
	e := NewEngine(g)
	res, err := e.RunSource("flops(\">\", 1, %%)\n", Options{Symbols: syms})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AddedCompensation) != 1 || res.AddedCompensation[0] != "main" {
		t.Fatalf("added = %v, want [main]", res.AddedCompensation)
	}
	if !hasName(res.Final, "main") || hasName(res.Final, "a") || hasName(res.Final, "b") {
		t.Fatalf("final = %v", res.Final.Names())
	}
}

func TestInlineCompensationNoOpWhenAllSymbolsPresent(t *testing.T) {
	e := NewEngine(mpiGraph())
	res, err := e.RunSource("statements(\">\", 0, %%)\n", Options{Symbols: allSymbols{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RemovedInlined) != 0 || len(res.AddedCompensation) != 0 {
		t.Fatalf("unexpected compensation: -%v +%v", res.RemovedInlined, res.AddedCompensation)
	}
	if !res.Final.Equal(res.Pre) {
		t.Fatal("final should equal pre")
	}
}

func TestICEmission(t *testing.T) {
	e := NewEngine(mpiGraph())
	res, err := e.RunSource("byName(\"^(loop|compute)$\", %%)\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.IC("app", "test")
	if cfg.Len() != 2 || !cfg.Contains("loop") || !cfg.Contains("compute") {
		t.Fatalf("IC = %v", cfg.Include)
	}
	if cfg.App != "app" || cfg.Spec != "test" {
		t.Fatalf("provenance = %q/%q", cfg.App, cfg.Spec)
	}
}

func TestErrors(t *testing.T) {
	e := NewEngine(mpiGraph())
	cases := []struct {
		src  string
		frag string
	}{
		{"", "empty specification"},
		{"%ghost\n", "unknown selector instance"},
		{"frobnicate(%%)\n", "unknown selector type"},
		{"a = %%\na = %%\n", "redefinition"},
		{"join(\"str\")\n", "must be a selector"},
		{"!import(\"missing.capi\")\n%%\n", "missing.capi"},
	}
	for _, c := range cases {
		_, err := e.RunSource(c.src, Options{})
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("RunSource(%q) err = %v, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestStringEntryIsError(t *testing.T) {
	e := NewEngine(mpiGraph())
	f, err := spec.Parse("byName(\"x\", %%)\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunFile(f, Options{}); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

func TestCoarseInPipeline(t *testing.T) {
	e := NewEngine(mpiGraph())
	// compute's only caller is loop: coarse prunes it unless critical.
	src := `sel = byName("^(loop|compute)$", %%)
coarse(%sel)
`
	res, err := e.RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasName(res.Final, "compute") || !hasName(res.Final, "loop") {
		t.Fatalf("final = %v", res.Final.Names())
	}

	src2 := `sel = byName("^(loop|compute)$", %%)
crit = byName("^compute$", %%)
coarse(%sel, %crit)
`
	res2, err := e.RunSource(src2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasName(res2.Final, "compute") {
		t.Fatalf("critical compute pruned: %v", res2.Final.Names())
	}
}

// hasName reports membership by node name.
func hasName(s *callgraph.Set, name string) bool { return s.Has(s.Graph().Node(name)) }
