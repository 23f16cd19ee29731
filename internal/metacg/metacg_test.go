package metacg

import (
	"fmt"
	"testing"

	"capi/internal/callgraph"
	"capi/internal/prog"
)

// sample builds a program exercising direct, virtual, pointer and MPI calls
// across two translation units.
func sample(t *testing.T) *prog.Program {
	t.Helper()
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)
	p.MustAddFunc(&prog.Function{Name: "MPI_Allreduce", Unit: "libmpi.so", SystemHeader: true})

	p.MustAddFunc(&prog.Function{
		Name: "main", Unit: "app.exe", TU: "main.cc", Statements: 12,
		Ops: []prog.Op{
			prog.Call("helper", 1),
			prog.VCall("Base::solve", 1),
			prog.PtrCall("factory", 1),
			prog.PtrCall("hook", 1),
			prog.MPICall("MPI_Allreduce", 8),
		},
	})
	p.MustAddFunc(&prog.Function{
		Name: "helper", Unit: "app.exe", TU: "util.cc", Statements: 4, Inline: true,
	})
	p.MustAddFunc(&prog.Function{
		Name: "A::solve", Unit: "app.exe", TU: "a.cc", Virtual: true, Statements: 20,
	})
	p.MustAddFunc(&prog.Function{
		Name: "B::solve", Unit: "app.exe", TU: "b.cc", Virtual: true, Statements: 25,
	})
	p.RegisterVirtual("Base::solve", "A::solve")
	p.RegisterVirtual("Base::solve", "B::solve")

	p.MustAddFunc(&prog.Function{Name: "makeA", Unit: "app.exe", TU: "a.cc"})
	p.MustAddFunc(&prog.Function{Name: "makeB", Unit: "app.exe", TU: "b.cc"})
	p.RegisterPointerTarget("factory", "makeA", true) // statically resolvable slot
	p.RegisterPointerTarget("hook", "makeB", false)   // needs profile validation

	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildLocalTU(t *testing.T) {
	p := sample(t)
	g := BuildLocalTU(p, "main.cc")
	if g.Main != "main" {
		t.Fatalf("local graph Main = %q", g.Main)
	}
	if !g.HasEdge("main", "helper") {
		t.Fatal("direct call edge missing")
	}
	if !g.HasEdge("main", "Base::solve") {
		t.Fatal("virtual base edge missing at TU scope")
	}
	if !g.HasEdge("main", "MPI_Allreduce") {
		t.Fatal("MPI edge missing")
	}
	// helper is a stub here: node present, empty metadata.
	h := g.Node("helper")
	if h == nil || g.Meta(h).Statements != 0 {
		t.Fatal("callee should be a stub in the local graph")
	}
	// Pointer callsites are unresolved at TU scope.
	if g.Node("makeA") != nil {
		t.Fatal("pointer targets must not appear in local graphs")
	}
}

func TestBuildWholeProgram(t *testing.T) {
	p := sample(t)
	g := BuildWholeProgram(p)
	if g.Main != "main" {
		t.Fatalf("Main = %q", g.Main)
	}
	// Stub resolved by merge: helper now carries its definition metadata.
	if got := g.Meta(g.Node("helper")).Statements; got != 4 {
		t.Fatalf("helper statements = %d, want 4", got)
	}
	if !g.Meta(g.Node("helper")).Inline {
		t.Fatal("helper inline flag lost")
	}
	// Virtual over-approximation: edges to both implementations.
	if !g.HasEdge("main", "A::solve") || !g.HasEdge("main", "B::solve") {
		t.Fatal("virtual over-approximation edges missing")
	}
	// Static pointer resolution: only the statically resolvable target.
	if !g.HasEdge("main", "makeA") {
		t.Fatal("static pointer target edge missing")
	}
	if g.HasEdge("main", "makeB") {
		t.Fatal("non-static pointer target must not be resolved statically")
	}
	// All definitions present as nodes.
	for _, f := range p.Funcs() {
		if g.Node(f.Name) == nil {
			t.Fatalf("definition %s missing from whole-program graph", f.Name)
		}
	}
}

func TestMetadataTranslation(t *testing.T) {
	p := prog.New("m", "f")
	p.MustAddUnit("u", prog.Executable)
	p.MustAddFunc(&prog.Function{
		Name: "f", Unit: "u", TU: "f.cc",
		Statements: 1, LOC: 2, Flops: 3, LoopDepth: 4, Cyclomatic: 5,
		Inline: true, SystemHeader: true, Virtual: true,
	})
	g := BuildWholeProgram(p)
	want := callgraph.Meta{
		Statements: 1, LOC: 2, Flops: 3, LoopDepth: 4, Cyclomatic: 5,
		Inline: true, SystemHeader: true, Virtual: true, Unit: "u", TU: "f.cc",
	}
	if got := g.Meta(g.Node("f")); got != want {
		t.Fatalf("meta = %+v, want %+v", got, want)
	}
}

// TestBuildWholeProgramPinsOrder pins node IDs and adjacency order on a
// program with the three cases the one-pass build must order as MetaCG's
// merge does: g is called in a.cc before a.cc defines it, so its edges go in
// before k's; ghost is an undefined direct callee and Base::run a virtual
// base with no body, and both become stubs. The program is not valid
// (ghost), which BuildWholeProgram does not need.
func TestBuildWholeProgramPinsOrder(t *testing.T) {
	p := prog.New("pins", "f")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)
	p.MustAddFunc(&prog.Function{Name: "f", Unit: "app.exe", TU: "a.cc", Statements: 1,
		Ops: []prog.Op{prog.Call("g", 1), prog.Call("h", 1), prog.VCall("Base::run", 1)}})
	p.MustAddFunc(&prog.Function{Name: "k", Unit: "app.exe", TU: "a.cc", Statements: 2,
		Ops: []prog.Op{prog.Call("x", 1), prog.Call("ghost", 1)}})
	p.MustAddFunc(&prog.Function{Name: "g", Unit: "app.exe", TU: "a.cc", Statements: 3,
		Ops: []prog.Op{prog.Call("x", 1), prog.Call("k", 1), prog.Call("x", 2)}})
	p.MustAddFunc(&prog.Function{Name: "h", Unit: "app.exe", TU: "b.cc", Statements: 4,
		Ops: []prog.Op{prog.Call("x", 1), prog.MPICall("MPI_Send", 8)}})
	p.MustAddFunc(&prog.Function{Name: "x", Unit: "app.exe", TU: "b.cc", Statements: 5})
	p.MustAddFunc(&prog.Function{Name: "Impl::run", DisplayName: "Impl::run()", Unit: "app.exe", TU: "b.cc", Virtual: true, Statements: 6})
	p.MustAddFunc(&prog.Function{Name: "MPI_Send", Unit: "libmpi.so", TU: "mpi.c", SystemHeader: true})
	p.RegisterVirtual("Base::run", "Impl::run")

	g := BuildWholeProgram(p)
	sameGraph(t, "pins", g, serialWholeProgram(p))
	want := []struct {
		name, display    string
		statements       int32
		callees, callers string
	}{
		{"f", "f", 1, "[g h Base::run Impl::run]", "[]"},
		{"g", "g", 3, "[x k]", "[f]"},
		{"h", "h", 4, "[x MPI_Send]", "[f]"},
		{"Base::run", "Base::run", 0, "[]", "[f]"},
		{"k", "k", 2, "[x ghost]", "[g]"},
		{"x", "x", 5, "[]", "[g k h]"},
		{"ghost", "ghost", 0, "[]", "[k]"},
		{"MPI_Send", "MPI_Send", 0, "[]", "[h]"},
		{"Impl::run", "Impl::run()", 6, "[]", "[f]"},
	}
	if g.Len() != len(want) || g.NumEdges() != 10 || g.Main != "f" {
		t.Fatalf("%d nodes %d edges main %q, want %d 10 f", g.Len(), g.NumEdges(), g.Main, len(want))
	}
	names := func(ids []int32) string {
		var out []string
		for _, id := range ids {
			out = append(out, g.NodeByID(int(id)).Name)
		}
		return fmt.Sprint(out)
	}
	for id, w := range want {
		n := g.NodeByID(id)
		callees, callers := names(g.Callees(n)), names(g.Callers(n))
		if n.Name != w.name || n.Display != w.display || g.Meta(n).Statements != w.statements || callees != w.callees || callers != w.callers {
			t.Errorf("node %d is %s (%s, %d statements) callees %v callers %v, want %s (%s, %d) %s %s", id,
				n.Name, n.Display, g.Meta(n).Statements, callees, callers, w.name, w.display, w.statements, w.callees, w.callers)
		}
	}
	if g.Meta(g.Node("ghost")) != (callgraph.Meta{}) || g.Meta(g.Node("Base::run")) != (callgraph.Meta{}) {
		t.Error("a stub carries metadata")
	}
}
