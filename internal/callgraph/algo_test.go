package callgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// diamond builds main -> {l, r} -> sink, plus an isolated node "iso" and a
// cycle c1 <-> c2 reachable from r.
func diamond() *Graph {
	g := New("diamond", 0)
	g.Main = "main"
	g.AddEdge("main", "l")
	g.AddEdge("main", "r")
	g.AddEdge("l", "sink")
	g.AddEdge("r", "sink")
	g.AddEdge("r", "c1")
	g.AddEdge("c1", "c2")
	g.AddEdge("c2", "c1")
	g.AddNode("iso", Meta{})
	return g
}

func TestReachableForward(t *testing.T) {
	g := diamond()
	r := g.Reachable(g.SetOf("main"), true)
	want := []string{"main", "l", "r", "sink", "c1", "c2"}
	if r.Count() != len(want) {
		t.Fatalf("Reachable = %v", r.Names())
	}
	for _, n := range want {
		if !r.HasName(n) {
			t.Fatalf("missing %s", n)
		}
	}
	if r.HasName("iso") {
		t.Fatal("iso must be unreachable")
	}
}

func TestReachableBackward(t *testing.T) {
	g := diamond()
	r := g.Reachable(g.SetOf("sink"), false)
	for _, n := range []string{"sink", "l", "r", "main"} {
		if !r.HasName(n) {
			t.Fatalf("missing ancestor %s", n)
		}
	}
	if r.HasName("c1") || r.HasName("c2") {
		t.Fatal("cycle nodes are not ancestors of sink")
	}
}

func TestOnCallPath(t *testing.T) {
	g := diamond()
	p := g.OnCallPath("main", g.SetOf("sink"))
	want := map[string]bool{"main": true, "l": true, "r": true, "sink": true}
	if p.Count() != len(want) {
		t.Fatalf("OnCallPath = %v", p.Names())
	}
	for n := range want {
		if !p.HasName(n) {
			t.Fatalf("missing %s", n)
		}
	}
	// Unknown root yields the empty set.
	if !g.OnCallPath("ghost", g.SetOf("sink")).Empty() {
		t.Fatal("unknown root should yield empty set")
	}
}

func TestOnCallPathThroughCycle(t *testing.T) {
	g := New("g", 0)
	g.AddEdge("main", "a")
	g.AddEdge("a", "b")
	g.AddEdge("b", "a") // recursion
	g.AddEdge("b", "target")
	p := g.OnCallPath("main", g.SetOf("target"))
	for _, n := range []string{"main", "a", "b", "target"} {
		if !p.HasName(n) {
			t.Fatalf("missing %s", n)
		}
	}
}

func TestSCC(t *testing.T) {
	g := diamond()
	comp, n := g.SCC()
	if n != 6 { // {main} {l} {r} {sink} {c1,c2} {iso}
		t.Fatalf("ncomp = %d, want 6", n)
	}
	if comp[g.Node("c1").ID()] != comp[g.Node("c2").ID()] {
		t.Fatal("c1 and c2 should share a component")
	}
	if comp[g.Node("l").ID()] == comp[g.Node("r").ID()] {
		t.Fatal("l and r must not share a component")
	}
	// Reverse topological property: caller comp index > callee comp index.
	for _, nd := range g.Nodes() {
		for _, c := range nd.Callees() {
			if comp[nd.ID()] != comp[c.ID()] && comp[nd.ID()] < comp[c.ID()] {
				t.Fatalf("edge %s->%s violates reverse topological order", nd.Name, c.Name)
			}
		}
	}
}

func TestSCCRandomizedTopoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New("rand", 0)
		n := 50
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("f%d", i), Meta{})
		}
		for e := 0; e < 120; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			g.AddEdge(fmt.Sprintf("f%d", a), fmt.Sprintf("f%d", b))
		}
		comp, _ := g.SCC()
		for _, nd := range g.Nodes() {
			for _, c := range nd.Callees() {
				if comp[nd.ID()] != comp[c.ID()] && comp[nd.ID()] < comp[c.ID()] {
					t.Fatalf("trial %d: edge %s->%s violates order", trial, nd.Name, c.Name)
				}
			}
		}
	}
}

func TestStatementAggregation(t *testing.T) {
	// main(10) -> a(5) -> b(3); main -> b directly too.
	g := New("agg", 0)
	g.AddNode("main", Meta{Statements: 10})
	g.AddNode("a", Meta{Statements: 5})
	g.AddNode("b", Meta{Statements: 3})
	g.AddEdge("main", "a")
	g.AddEdge("a", "b")
	g.AddEdge("main", "b")
	agg := g.StatementAggregation("main")
	if got := agg[g.Node("main").ID()]; got != 10 {
		t.Fatalf("agg(main) = %d", got)
	}
	if got := agg[g.Node("a").ID()]; got != 15 {
		t.Fatalf("agg(a) = %d", got)
	}
	// Max path: main -> a -> b = 18 (not 13 via the direct edge).
	if got := agg[g.Node("b").ID()]; got != 18 {
		t.Fatalf("agg(b) = %d, want 18", got)
	}
}

func TestStatementAggregationCycle(t *testing.T) {
	g := New("aggc", 0)
	g.AddNode("main", Meta{Statements: 1})
	g.AddNode("x", Meta{Statements: 2})
	g.AddNode("y", Meta{Statements: 4})
	g.AddNode("leaf", Meta{Statements: 8})
	g.AddEdge("main", "x")
	g.AddEdge("x", "y")
	g.AddEdge("y", "x") // cycle {x,y} counts once: 6
	g.AddEdge("y", "leaf")
	agg := g.StatementAggregation("main")
	if got := agg[g.Node("x").ID()]; got != 7 {
		t.Fatalf("agg(x) = %d, want 7", got)
	}
	if got := agg[g.Node("y").ID()]; got != 7 {
		t.Fatalf("agg(y) = %d, want 7 (same SCC)", got)
	}
	if got := agg[g.Node("leaf").ID()]; got != 15 {
		t.Fatalf("agg(leaf) = %d, want 15", got)
	}
	// Unreachable root.
	zero := g.StatementAggregation("ghost")
	for _, v := range zero {
		if v != 0 {
			t.Fatal("unknown root must yield zeros")
		}
	}
}

// listing3 builds the OpenFOAM solve chain from the paper's Listing 3:
// a single-caller chain solve -> s1 -> s2 -> s3 -> s4 -> Amul.
func listing3() *Graph {
	g := New("listing3", 0)
	g.Main = "main"
	g.AddEdge("main", "solve")
	g.AddEdge("solve", "s1")
	g.AddEdge("s1", "s2")
	g.AddEdge("s2", "s3")
	g.AddEdge("s3", "s4")
	g.AddEdge("s4", "Amul")
	// Give solve a second caller so it is kept regardless.
	g.AddEdge("main", "other")
	return g
}

func TestCoarseCollapsesChain(t *testing.T) {
	g := listing3()
	in := g.SetOf("solve", "s1", "s2", "s3", "s4", "Amul")
	critical := g.SetOf("Amul")
	out := g.Coarse("main", in, critical)
	if !out.HasName("solve") {
		t.Fatal("solve (multi-caller context head) must stay")
	}
	for _, mid := range []string{"s1", "s2", "s3", "s4"} {
		if out.HasName(mid) {
			t.Fatalf("%s should be pruned by coarse", mid)
		}
	}
	if !out.HasName("Amul") {
		t.Fatal("critical Amul must be retained")
	}
}

func TestCoarseWithoutCriticalPrunesLeaf(t *testing.T) {
	g := listing3()
	in := g.SetOf("solve", "s1", "s2", "s3", "s4", "Amul")
	out := g.Coarse("main", in, nil)
	if out.HasName("Amul") {
		t.Fatal("without a critical set, the sole-caller leaf is pruned too")
	}
}

func TestCoarseKeepsMultiCallerCallees(t *testing.T) {
	g := New("g", 0)
	g.Main = "main"
	g.AddEdge("main", "a")
	g.AddEdge("main", "b")
	g.AddEdge("a", "shared")
	g.AddEdge("b", "shared")
	in := g.SetOf("a", "b", "shared")
	out := g.Coarse("main", in, nil)
	if !out.HasName("shared") {
		t.Fatal("multi-caller callee must be retained")
	}
}

func TestCoarseDoesNotMutateInput(t *testing.T) {
	g := listing3()
	in := g.SetOf("solve", "s1", "s2")
	before := in.Count()
	g.Coarse("main", in, nil)
	if in.Count() != before {
		t.Fatal("Coarse mutated its input")
	}
}

func TestCoarseUnknownRoot(t *testing.T) {
	g := listing3()
	in := g.SetOf("s1")
	out := g.Coarse("ghost", in, nil)
	if !out.Equal(in) {
		t.Fatal("unknown root should return the input unchanged")
	}
}
