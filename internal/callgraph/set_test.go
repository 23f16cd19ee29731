package callgraph

import (
	"fmt"
	"testing"
	"testing/quick"
)

// union returns a ∪ b as a new set; sets of two graphs panic.
func union(a, b *Set) *Set {
	r := a.Clone()
	r.UnionWith(b)
	return r
}

// lineGraph returns a graph with n isolated nodes named "f0".."f(n-1)".
func lineGraph(n int) *Graph {
	b := NewBuilder("line", "")
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("f%d", i), Meta{})
	}
	return b.Graph()
}

func TestUniverseSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		g := lineGraph(n)
		u := g.UniverseSet()
		if u.Count() != n {
			t.Fatalf("UniverseSet(%d).Count = %d", n, u.Count())
		}
		for _, node := range g.Nodes() {
			if !u.Has(&node) {
				t.Fatalf("universe missing %s", node.Name)
			}
		}
	}
}

func TestSetBasics(t *testing.T) {
	g := lineGraph(100)
	s := g.NewSet()
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	n42 := g.Node("f42")
	s.Add(n42)
	s.AddID(g.Node("f77").ID())
	if !s.Has(n42) || !hasName(s, "f77") || !s.HasID(77) {
		t.Fatal("membership lost")
	}
	if s.Has(nil) {
		t.Fatal("Has(nil) must be false")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	s.Remove(n42)
	if s.Has(n42) || s.Count() != 1 {
		t.Fatal("Remove failed")
	}
}

func TestSetAlgebra(t *testing.T) {
	g := lineGraph(200)
	a := setOf(g, "f1", "f2", "f3")
	b := setOf(g, "f3", "f4")

	if got := union(a, b).Names(); len(got) != 4 {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Subtract(b).Names(); len(got) != 2 || got[0] != "f1" || got[1] != "f2" {
		t.Fatalf("Subtract = %v", got)
	}
	if got := a.Intersect(b).Names(); len(got) != 1 || got[0] != "f3" {
		t.Fatalf("Intersect = %v", got)
	}
	// Originals untouched.
	if a.Count() != 3 || b.Count() != 2 {
		t.Fatal("set algebra must not mutate operands")
	}
	c := a.Clone()
	c.UnionWith(b)
	if c.Count() != 4 || a.Count() != 3 {
		t.Fatal("UnionWith wrong")
	}
}

// TestSetOfIgnoresUnknown: an unknown name has no node, so the tests' set
// builder skips it and no set holds it.
func TestSetOfIgnoresUnknown(t *testing.T) {
	g := lineGraph(5)
	s := setOf(g, "f1", "ghost")
	if g.Node("ghost") != nil || hasName(s, "ghost") {
		t.Fatal("unknown name resolved to a node")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestCrossGraphPanics(t *testing.T) {
	g1, g2 := lineGraph(5), lineGraph(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-graph set op")
		}
	}()
	union(g1.NewSet(), g2.NewSet())
}

func TestForEachEarlyStop(t *testing.T) {
	g := lineGraph(10)
	s := g.UniverseSet()
	seen := 0
	s.ForEach(func(n *Node) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("seen = %d, want 3", seen)
	}
}

func TestMembersOrder(t *testing.T) {
	g := lineGraph(70)
	s := setOf(g, "f65", "f2", "f64")
	m := s.Members()
	if len(m) != 3 || m[0].Name != "f2" || m[1].Name != "f64" || m[2].Name != "f65" {
		t.Fatalf("Members order = %v", m)
	}
}

// Properties of the set algebra, checked with testing/quick over random
// membership vectors.

func setFromBools(g *Graph, bs []bool) *Set {
	s := g.NewSet()
	for i, b := range bs {
		if b && i < g.Len() {
			s.AddID(i)
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	g := lineGraph(130)
	trim := func(bs []bool) []bool {
		if len(bs) > g.Len() {
			return bs[:g.Len()]
		}
		return bs
	}

	t.Run("DeMorgan-ish: (a∪b)\\b ⊆ a", func(t *testing.T) {
		f := func(ab, bb []bool) bool {
			a, b := setFromBools(g, trim(ab)), setFromBools(g, trim(bb))
			diff := union(a, b).Subtract(b)
			ok := true
			diff.ForEach(func(n *Node) bool {
				if !a.Has(n) {
					ok = false
					return false
				}
				return true
			})
			return ok
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("union count = |a|+|b|-|a∩b|", func(t *testing.T) {
		f := func(ab, bb []bool) bool {
			a, b := setFromBools(g, trim(ab)), setFromBools(g, trim(bb))
			return union(a, b).Count() == a.Count()+b.Count()-a.Intersect(b).Count()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("subtract then intersect is empty", func(t *testing.T) {
		f := func(ab, bb []bool) bool {
			a, b := setFromBools(g, trim(ab)), setFromBools(g, trim(bb))
			return a.Subtract(b).Intersect(b).Count() == 0
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("clone equality", func(t *testing.T) {
		f := func(ab []bool) bool {
			a := setFromBools(g, trim(ab))
			return a.Clone().Equal(a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// setOf builds a set of the named nodes; unknown names are ignored.
func setOf(g *Graph, names ...string) *Set {
	s := g.NewSet()
	for _, name := range names {
		if n := g.Node(name); n != nil {
			s.Add(n)
		}
	}
	return s
}

// hasName reports membership by node name.
func hasName(s *Set, name string) bool { return s.Has(s.Graph().Node(name)) }
