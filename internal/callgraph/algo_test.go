package callgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// diamond builds main -> {l, r} -> sink, plus an isolated node "iso" and a
// cycle c1 <-> c2 reachable from r.
func diamond() *Graph {
	b := NewBuilder("diamond", "main")
	b.Edge("main", "l")
	b.Edge("main", "r")
	b.Edge("l", "sink")
	b.Edge("r", "sink")
	b.Edge("r", "c1")
	b.Edge("c1", "c2")
	b.Edge("c2", "c1")
	b.Add("iso", Meta{})
	return b.Graph()
}

func TestReachableForward(t *testing.T) {
	g := diamond()
	r := g.Reachable(setOf(g, "main"), true)
	want := []string{"main", "l", "r", "sink", "c1", "c2"}
	if r.Count() != len(want) {
		t.Fatalf("Reachable = %v", r.Names())
	}
	for _, n := range want {
		if !hasName(r, n) {
			t.Fatalf("missing %s", n)
		}
	}
	if hasName(r, "iso") {
		t.Fatal("iso must be unreachable")
	}
}

func TestReachableBackward(t *testing.T) {
	g := diamond()
	r := g.Reachable(setOf(g, "sink"), false)
	for _, n := range []string{"sink", "l", "r", "main"} {
		if !hasName(r, n) {
			t.Fatalf("missing ancestor %s", n)
		}
	}
	if hasName(r, "c1") || hasName(r, "c2") {
		t.Fatal("cycle nodes are not ancestors of sink")
	}
}

func TestOnCallPath(t *testing.T) {
	g := diamond()
	p := g.OnCallPath(g.Node("main"), setOf(g, "sink"))
	want := map[string]bool{"main": true, "l": true, "r": true, "sink": true}
	if p.Count() != len(want) {
		t.Fatalf("OnCallPath = %v", p.Names())
	}
	for n := range want {
		if !hasName(p, n) {
			t.Fatalf("missing %s", n)
		}
	}
	// Unknown root yields the empty set.
	if g.OnCallPath(g.Node("ghost"), setOf(g, "sink")).Count() != 0 {
		t.Fatal("unknown root should yield empty set")
	}
}

func TestOnCallPathThroughCycle(t *testing.T) {
	b := NewBuilder("g", "")
	b.Edge("main", "a")
	b.Edge("a", "b")
	b.Edge("b", "a") // recursion
	b.Edge("b", "target")
	g := b.Graph()
	p := g.OnCallPath(g.Node("main"), setOf(g, "target"))
	for _, n := range []string{"main", "a", "b", "target"} {
		if !hasName(p, n) {
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
		for _, c := range g.Callees(&nd) {
			if comp[nd.ID()] != comp[c] && comp[nd.ID()] < comp[c] {
				t.Fatalf("edge %s->%s violates reverse topological order", nd.Name, g.NodeByID(int(c)))
			}
		}
	}
}

func TestSCCRandomizedTopoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		bld := NewBuilder("rand", "")
		n := 50
		for i := 0; i < n; i++ {
			bld.Add(fmt.Sprintf("f%d", i), Meta{})
		}
		for e := 0; e < 120; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			bld.Edge(fmt.Sprintf("f%d", a), fmt.Sprintf("f%d", b))
		}
		g := bld.Graph()
		comp, _ := g.SCC()
		for _, nd := range g.Nodes() {
			for _, c := range g.Callees(&nd) {
				if comp[nd.ID()] != comp[c] && comp[nd.ID()] < comp[c] {
					t.Fatalf("trial %d: edge %s->%s violates order", trial, nd.Name, g.NodeByID(int(c)))
				}
			}
		}
	}
}

func TestStatementAggregation(t *testing.T) {
	// main(10) -> a(5) -> b(3); main -> b directly too.
	b := NewBuilder("agg", "")
	b.Add("main", Meta{Statements: 10})
	b.Add("a", Meta{Statements: 5})
	b.Add("b", Meta{Statements: 3})
	b.Edge("main", "a")
	b.Edge("a", "b")
	b.Edge("main", "b")
	g := b.Graph()
	agg := g.StatementAggregation(g.Node("main"))
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
	b := NewBuilder("aggc", "")
	b.Add("main", Meta{Statements: 1})
	b.Add("x", Meta{Statements: 2})
	b.Add("y", Meta{Statements: 4})
	b.Add("leaf", Meta{Statements: 8})
	b.Edge("main", "x")
	b.Edge("x", "y")
	b.Edge("y", "x") // cycle {x,y} counts once: 6
	b.Edge("y", "leaf")
	g := b.Graph()
	agg := g.StatementAggregation(g.Node("main"))
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
	zero := g.StatementAggregation(g.Node("ghost"))
	for _, v := range zero {
		if v != 0 {
			t.Fatal("unknown root must yield zeros")
		}
	}
}

// listing3 builds the OpenFOAM solve chain from the paper's Listing 3:
// a single-caller chain solve -> s1 -> s2 -> s3 -> s4 -> Amul.
func listing3() *Graph {
	b := NewBuilder("listing3", "main")
	b.Edge("main", "solve")
	b.Edge("solve", "s1")
	b.Edge("s1", "s2")
	b.Edge("s2", "s3")
	b.Edge("s3", "s4")
	b.Edge("s4", "Amul")
	// Give solve a second caller so it is kept regardless.
	b.Edge("main", "other")
	return b.Graph()
}

func TestCoarseCollapsesChain(t *testing.T) {
	g := listing3()
	in := setOf(g, "solve", "s1", "s2", "s3", "s4", "Amul")
	critical := setOf(g, "Amul")
	out := g.Coarse(g.MainNode(), in, critical)
	if !hasName(out, "solve") {
		t.Fatal("solve (multi-caller context head) must stay")
	}
	for _, mid := range []string{"s1", "s2", "s3", "s4"} {
		if hasName(out, mid) {
			t.Fatalf("%s should be pruned by coarse", mid)
		}
	}
	if !hasName(out, "Amul") {
		t.Fatal("critical Amul must be retained")
	}
}

func TestCoarseWithoutCriticalPrunesLeaf(t *testing.T) {
	g := listing3()
	in := setOf(g, "solve", "s1", "s2", "s3", "s4", "Amul")
	out := g.Coarse(g.MainNode(), in, nil)
	if hasName(out, "Amul") {
		t.Fatal("without a critical set, the sole-caller leaf is pruned too")
	}
}

func TestCoarseKeepsMultiCallerCallees(t *testing.T) {
	b := NewBuilder("g", "main")
	b.Edge("main", "a")
	b.Edge("main", "b")
	b.Edge("a", "shared")
	b.Edge("b", "shared")
	g := b.Graph()
	in := setOf(g, "a", "b", "shared")
	out := g.Coarse(g.MainNode(), in, nil)
	if !hasName(out, "shared") {
		t.Fatal("multi-caller callee must be retained")
	}
}

func TestCoarseDoesNotMutateInput(t *testing.T) {
	g := listing3()
	in := setOf(g, "solve", "s1", "s2")
	before := in.Count()
	g.Coarse(g.MainNode(), in, nil)
	if in.Count() != before {
		t.Fatal("Coarse mutated its input")
	}
}

func TestCoarseUnknownRoot(t *testing.T) {
	g := listing3()
	in := setOf(g, "s1")
	out := g.Coarse(g.Node("ghost"), in, nil)
	if !out.Equal(in) {
		t.Fatal("unknown root should return the input unchanged")
	}
}
