package callgraph

import "math/bits"

// Set is a dense bitset of graph nodes, the currency of the selection
// pipeline. With OpenFOAM-scale graphs (410k nodes) the selectors perform
// many unions/subtractions; a bitset keeps each at a few kilobytes per
// 64k nodes and makes set algebra word-parallel.
//
// A Set is bound to the graph it was created from; combining sets from
// different graphs panics (it is always a programming error).
type Set struct {
	g     *Graph
	words []uint64
}

// NewSet returns an empty set over g's nodes.
func (g *Graph) NewSet() *Set {
	return &Set{g: g, words: make([]uint64, (g.Len()+63)/64)}
}

// UniverseSet returns the set of all nodes (the DSL's "%%").
func (g *Graph) UniverseSet() *Set {
	s := g.NewSet()
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Clear the tail bits beyond Len.
	if extra := len(s.words)*64 - g.Len(); extra > 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] >>= uint(extra)
	}
	return s
}

// Graph returns the graph this set is bound to.
func (s *Set) Graph() *Graph { return s.g }

func (s *Set) check(o *Set) {
	if s.g != o.g {
		//capi:panic-ok mixing sets of two graphs is a programming error, not a runtime condition
		panic("callgraph: set operation across different graphs")
	}
}

// Add inserts the node.
func (s *Set) Add(n *Node) { s.words[n.id>>6] |= 1 << uint(n.id&63) }

// AddID inserts the node with the given dense index.
func (s *Set) AddID(id int) { s.words[id>>6] |= 1 << uint(id&63) }

// Remove deletes the node.
func (s *Set) Remove(n *Node) { s.words[n.id>>6] &^= 1 << uint(n.id&63) }

// Has reports membership.
func (s *Set) Has(n *Node) bool {
	return n != nil && s.words[n.id>>6]&(1<<uint(n.id&63)) != 0
}

// HasID reports membership by dense index.
func (s *Set) HasID(id int) bool { return s.words[id>>6]&(1<<uint(id&63)) != 0 }

// Count returns the number of members.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{g: s.g, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Subtract returns s \ o as a new set.
func (s *Set) Subtract(o *Set) *Set {
	s.check(o)
	r := s.Clone()
	for i, w := range o.words {
		r.words[i] &^= w
	}
	return r
}

// Intersect returns s ∩ o as a new set.
func (s *Set) Intersect(o *Set) *Set {
	s.check(o)
	r := s.Clone()
	for i, w := range o.words {
		r.words[i] &= w
	}
	return r
}

// UnionWith adds all members of o to s in place.
func (s *Set) UnionWith(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Equal reports whether both sets have identical membership.
func (s *Set) Equal(o *Set) bool {
	s.check(o)
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in dense-index order; returning false
// stops the iteration early.
func (s *Set) ForEach(fn func(*Node) bool) {
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			if !fn(&s.g.nodes[wi*64+bit]) {
				return
			}
		}
	}
}

// Names returns the member names in dense-index order.
func (s *Set) Names() []string {
	out := make([]string, 0, s.Count())
	s.ForEach(func(n *Node) bool {
		out = append(out, n.Name)
		return true
	})
	return out
}

// Members returns the member nodes in dense-index order.
func (s *Set) Members() []*Node {
	out := make([]*Node, 0, s.Count())
	s.ForEach(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}
