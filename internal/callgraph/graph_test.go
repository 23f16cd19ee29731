package callgraph

import (
	"bytes"
	"fmt"
	"testing"
)

// chain builds a -> b -> c -> d.
func chain(t *testing.T) *Graph {
	t.Helper()
	g := New("chain", 0)
	g.Main = "a"
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New("g", 0)
	n1 := g.AddNode("f", Meta{Statements: 5})
	n2 := g.AddNode("f", Meta{Statements: 99})
	if n1 != n2 {
		t.Fatal("AddNode should return the existing node")
	}
	if n1.Meta.Statements != 5 {
		t.Fatalf("existing metadata must not be overwritten, got %d", n1.Meta.Statements)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestSetMeta(t *testing.T) {
	g := New("g", 0)
	g.AddNode("f", Meta{})
	if !g.SetMeta("f", Meta{Flops: 7}) {
		t.Fatal("SetMeta on existing node returned false")
	}
	if g.Node("f").Meta.Flops != 7 {
		t.Fatal("SetMeta did not apply")
	}
	if g.SetMeta("ghost", Meta{}) {
		t.Fatal("SetMeta on missing node returned true")
	}
}

func TestEdgesDeduplicated(t *testing.T) {
	g := New("g", 0)
	g.AddEdge("a", "b")
	g.AddEdge("a", "b")
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Node("a").Callees()) != 1 || len(g.Node("b").Callers()) != 1 {
		t.Fatal("adjacency lists contain duplicates")
	}
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") {
		t.Fatal("HasEdge wrong")
	}
}

func TestNodeByID(t *testing.T) {
	g := chain(t)
	for _, n := range g.Nodes() {
		if g.NodeByID(n.ID()) != n {
			t.Fatalf("NodeByID(%d) mismatch", n.ID())
		}
	}
	if g.NodeByID(-1) != nil || g.NodeByID(g.Len()) != nil {
		t.Fatal("out-of-range NodeByID should return nil")
	}
}

func TestValidateAndMainNode(t *testing.T) {
	g := chain(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MainNode() == nil || g.MainNode().Name != "a" {
		t.Fatal("MainNode wrong")
	}
	g2 := New("x", 0)
	if g2.MainNode() != nil {
		t.Fatal("MainNode of empty graph should be nil")
	}
}

// TestAssembleEqualsAddEdge: Assemble builds the graph AddNode and AddEdge
// build from the same nodes and edges — IDs, callee and caller order, repeats
// dropped — and the arena it cuts the adjacency lists from does not leak:
// edges added afterwards, from a hub and to a hotspot, move no other list.
func TestAssembleEqualsAddEdge(t *testing.T) {
	names := []string{"main", "hub", "l0", "l1", "l2", "hotspot"}
	var edges []Edge
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 5}, {1, 3}, {3, 5}, {1, 2}, {4, 5}, {1, 4}, {0, 5}, {3, 5}, {5, 0}} {
		edges = append(edges, Edge{From: e[0], To: e[1]})
	}
	want := New("g", 0)
	nodes := make([]Node, len(names))
	for i, name := range names {
		want.AddNode(name, Meta{Statements: int32(i)}).Display = name + "()"
		nodes[i] = Node{Name: name, Display: name + "()", Meta: Meta{Statements: int32(i)}}
	}
	for _, e := range edges {
		want.AddEdge(names[e.From], names[e.To])
	}
	want.Main = "main"
	got := Assemble("g", "main", nodes, edges)
	same := func(what string) {
		t.Helper()
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Main != want.Main || got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: %q %q %d nodes %d edges, want %q %q %d %d", what, got.Name, got.Main, got.Len(), got.NumEdges(),
				want.Name, want.Main, want.Len(), want.NumEdges())
		}
		for i, w := range want.Nodes() {
			g := got.Nodes()[i]
			if g.ID() != w.ID() || g.Name != w.Name || g.Display != w.Display || g.Meta != w.Meta ||
				fmt.Sprint(g.Callees()) != fmt.Sprint(w.Callees()) || fmt.Sprint(g.Callers()) != fmt.Sprint(w.Callers()) {
				t.Fatalf("%s: node %d is %d %s %v→%v→%v, want %d %s %v→%v→%v", what, i,
					g.ID(), g.Display, g.Callers(), g, g.Callees(), w.ID(), w.Display, w.Callers(), w, w.Callees())
			}
		}
	}
	same("assembled")
	if got.NumEdges() != 9 {
		t.Fatalf("%d edges, want 9 once the two repeats are dropped", got.NumEdges())
	}
	for _, e := range [][2]string{{"hub", "l2"}, {"l1", "hotspot"}, {"hub", "hotspot"}, {"hotspot", "new"}, {"l0", "l1"}} {
		got.AddEdge(e[0], e[1])
		want.AddEdge(e[0], e[1])
	}
	same("after AddEdge")
}

func TestJSONRoundTrip(t *testing.T) {
	g := chain(t)
	g.Node("a").Meta = Meta{Statements: 4, Flops: 12, LoopDepth: 1, Inline: true, Unit: "exe", TU: "a.cc"}
	g.Node("b").Display = "b()"
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d", g2.Len(), g2.NumEdges(), g.Len(), g.NumEdges())
	}
	if g2.Main != "a" {
		t.Fatalf("Main = %q", g2.Main)
	}
	if g2.Node("a").Meta != g.Node("a").Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", g2.Node("a").Meta, g.Node("a").Meta)
	}
	if g2.Node("b").Display != "b()" {
		t.Fatal("display name lost")
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{}")); err == nil {
		t.Fatal("expected stamp error")
	}
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("expected parse error")
	}
}
