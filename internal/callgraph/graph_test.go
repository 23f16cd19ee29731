package callgraph

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// chain builds a -> b -> c -> d.
func chain() *Builder {
	b := NewBuilder("chain", "a")
	b.Edge("a", "b")
	b.Edge("b", "c")
	b.Edge("c", "d")
	return b
}

func TestBuilderAddIdempotent(t *testing.T) {
	b := NewBuilder("g", "")
	id1 := b.Add("f", Meta{Statements: 5})
	id2 := b.Add("f", Meta{Statements: 99})
	if id1 != id2 {
		t.Fatal("Add should return the existing node")
	}
	g := b.Graph()
	if got := g.Meta(g.Node("f")).Statements; got != 5 {
		t.Fatalf("existing metadata must not be overwritten, got %d", got)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestEdgesDeduplicated(t *testing.T) {
	b := NewBuilder("g", "")
	b.Edge("a", "b")
	b.Edge("a", "b")
	g := b.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Callees(g.Node("a"))) != 1 || len(g.Callers(g.Node("b"))) != 1 {
		t.Fatal("adjacency lists contain duplicates")
	}
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") {
		t.Fatal("HasEdge wrong")
	}
}

func TestNodeByID(t *testing.T) {
	g := chain().Graph()
	for i := range g.Nodes() {
		if n := &g.Nodes()[i]; g.NodeByID(n.ID()) != n || n.ID() != i {
			t.Fatalf("NodeByID(%d) mismatch", n.ID())
		}
	}
	if g.NodeByID(-1) != nil || g.NodeByID(g.Len()) != nil {
		t.Fatal("out-of-range NodeByID should return nil")
	}
}

func TestMainNode(t *testing.T) {
	g := chain().Graph()
	if g.MainNode() == nil || g.MainNode().Name != "a" {
		t.Fatal("MainNode wrong")
	}
	if NewBuilder("x", "").Graph().MainNode() != nil {
		t.Fatal("MainNode of empty graph should be nil")
	}
	b := chain()
	b.Main = "ghost"
	if b.Graph().MainNode() != nil {
		t.Fatal("a Main no node carries has no MainNode")
	}
}

// TestAssembleAdjacency: Assemble numbers nodes in declaration order, keeps
// each callee and caller list in the order its edges first appear, drops
// repeats, and hands back every declaration's metadata — the unit and TU
// through the graph's label table.
func TestAssembleAdjacency(t *testing.T) {
	names := []string{"main", "hub", "l0", "l1", "l2", "hotspot"}
	var edges []Edge
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 5}, {1, 3}, {3, 5}, {1, 2}, {4, 5}, {1, 4}, {0, 5}, {3, 5}, {5, 0}} {
		edges = append(edges, Edge{From: e[0], To: e[1]})
	}
	decls := make([]Decl, len(names))
	for i, name := range names {
		decls[i] = Decl{Name: name, Display: name + "()",
			Meta: Meta{Statements: int32(i), Inline: i%2 == 0, Unit: []string{"exe", "lib.so"}[i%2], TU: fmt.Sprintf("t%d.cc", i%3)}}
	}
	decls[4].Meta = Meta{}
	// The reference: each edge kept at its first appearance.
	callees, callers := make([][]int32, len(names)), make([][]int32, len(names))
	seen := map[Edge]bool{}
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			callees[e.From] = append(callees[e.From], e.To)
			callers[e.To] = append(callers[e.To], e.From)
		}
	}
	g := Assemble("g", "main", decls, edges)
	if g.Name != "g" || g.Main != "main" || g.MainNode() != g.NodeByID(0) || g.Len() != len(names) || g.NumEdges() != 9 {
		t.Fatalf("%q %q %d nodes %d edges, want \"g\" \"main\" %d 9 once the two repeats are dropped",
			g.Name, g.Main, g.Len(), g.NumEdges(), len(names))
	}
	if len(g.arena) != 2*g.NumEdges() {
		t.Fatalf("the arena holds %d IDs for %d edges", len(g.arena), g.NumEdges())
	}
	for i, d := range decls {
		n := g.NodeByID(i)
		if n.ID() != i || n.Name != d.Name || n.Display != d.Display || g.Meta(n) != d.Meta ||
			!slices.Equal(g.Callees(n), callees[i]) || !slices.Equal(g.Callers(n), callers[i]) {
			t.Fatalf("node %d is %d %s %+v %v→·→%v, want %d %s %+v %v→·→%v", i,
				n.ID(), n.Display, g.Meta(n), g.Callers(n), g.Callees(n), i, d.Display, d.Meta, callers[i], callees[i])
		}
	}
}

// TestGraphKeepsNoNameIndex: an assembled graph holds its nodes in one slab
// and nothing keyed by name — no map, and no slice of node pointers beside
// the slab.
func TestGraphKeepsNoNameIndex(t *testing.T) {
	typ := reflect.TypeOf(Graph{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Map || f.Type == reflect.TypeOf([]*Node(nil)) {
			t.Errorf("Graph.%s is a %s", f.Name, f.Type)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b := chain()
	a, bb := b.Add("a", Meta{}), b.Add("b", Meta{})
	b.Decls[a].Meta = Meta{Statements: 4, Flops: 12, LoopDepth: 1, Inline: true, Unit: "exe", TU: "a.cc"}
	b.Decls[bb].Display = "b()"
	g := b.Graph()
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
	if g2.Meta(g2.Node("a")) != g.Meta(g.Node("a")) {
		t.Fatalf("meta mismatch: %+v vs %+v", g2.Meta(g2.Node("a")), g.Meta(g.Node("a")))
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
