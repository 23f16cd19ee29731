package callgraph

import (
	"bytes"
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

func TestMerge(t *testing.T) {
	// TU 1 defines a (calls b); b is a stub.
	g1 := New("tu1", 0)
	g1.AddNode("a", Meta{Statements: 3})
	g1.AddEdge("a", "b")
	// TU 2 defines b (calls c).
	g2 := New("tu2", 0)
	g2.AddNode("b", Meta{Statements: 8})
	g2.AddEdge("b", "c")
	g2.Main = "b"

	g1.Merge(g2)
	if g1.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", g1.Len())
	}
	if g1.Node("b").Meta.Statements != 8 {
		t.Fatal("definition should override stub metadata")
	}
	if !g1.HasEdge("a", "b") || !g1.HasEdge("b", "c") {
		t.Fatal("merged edges missing")
	}
	if g1.Main != "b" {
		t.Fatal("Main should be taken from other when unset")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeKeepsExistingMeta(t *testing.T) {
	g1 := New("a", 0)
	g1.AddNode("f", Meta{Statements: 3})
	g2 := New("b", 0)
	g2.AddNode("f", Meta{Statements: 99})
	g1.Merge(g2)
	if g1.Node("f").Meta.Statements != 3 {
		t.Fatal("merge must not overwrite non-empty metadata")
	}
}

// TestMergeTwiceAddsNothing: duplicates are found from either end of an edge
// — a hub's callee list is long and its callees' caller lists short, a
// hotspot's the other way round — and a second merge of the same graph
// changes neither the edge count nor any adjacency order.
func TestMergeTwiceAddsNothing(t *testing.T) {
	tu := New("tu", 0)
	for _, leaf := range []string{"l0", "l1", "l2", "l3"} {
		tu.AddEdge("hub", leaf)     // one caller, many callees
		tu.AddEdge(leaf, "hotspot") // many callers, one callee
	}
	g := New("whole", 0)
	g.AddEdge("main", "hub")
	g.Merge(tu)
	callees, callers := len(g.Node("hub").Callees()), len(g.Node("hotspot").Callers())
	g.Merge(tu)
	g.AddEdge("hub", "l2")
	g.AddEdge("l1", "hotspot")
	if g.NumEdges() != 9 || len(g.Node("hub").Callees()) != callees || len(g.Node("hotspot").Callers()) != callers {
		t.Fatalf("second merge grew the graph: %d edges, hub has %d callees, hotspot %d callers",
			g.NumEdges(), len(g.Node("hub").Callees()), len(g.Node("hotspot").Callers()))
	}
	if c := g.Node("hotspot").Callers(); c[0].Name != "l0" || c[3].Name != "l3" {
		t.Fatalf("caller order changed: %v", c)
	}
	if !g.HasEdge("hub", "l3") || !g.HasEdge("l3", "hotspot") || g.HasEdge("hotspot", "hub") || g.HasEdge("main", "l0") {
		t.Fatal("HasEdge wrong")
	}
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
