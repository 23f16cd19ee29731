// Package callgraph provides the whole-program call-graph representation the
// CaPI selection pipeline operates on (§III-A of the paper), together with
// dense node sets and the graph algebra used by the selectors: reachability,
// call-path computation, strongly connected components and statement
// aggregation.
//
// Graphs are immutable: Assemble builds one from its nodes and edges in a
// single step (internal/metacg, ReadJSON and Builder all end in it), and it
// is only read afterwards. A graph keeps one 80-byte Node per function in a
// slab in ID order, its edges as int32 node IDs in one arena, and the unit
// and TU names of its metadata once each; it keeps no name index, so Node
// (by name) is a scan, meant for tests.
package callgraph

import "slices"

// Meta is the per-function static metadata carried by a node. It mirrors the
// annotation set MetaCG attaches to call-graph nodes. Graph.Meta rebuilds it
// from the node's packed fields.
type Meta struct {
	Statements   int32  `json:"numStatements"`
	LOC          int32  `json:"loc"`
	Flops        int32  `json:"numFlops"`
	LoopDepth    int32  `json:"loopDepth"`
	Cyclomatic   int32  `json:"cyclomatic"`
	Inline       bool   `json:"inline"`
	SystemHeader bool   `json:"systemHeader"`
	Virtual      bool   `json:"virtual"`
	Unit         string `json:"unit,omitempty"`
	TU           string `json:"tu,omitempty"`
}

// Node is one function in the call graph. A graph keeps one per function
// for the life of a session, so it is packed: the metadata's counts and
// flags as Meta has them, its unit and TU as indices into the graph's label
// table (Graph.Meta rebuilds the whole Meta), and the edges as a window of
// the graph's ID arena, callees then callers.
type Node struct {
	Name                                          string
	Display                                       string // demangled name for reports; may equal Name
	Statements, LOC, Flops, LoopDepth, Cyclomatic int32
	Inline, SystemHeader, Virtual                 bool

	id, first, nout, nin, unit, tu int32 // arena[first:][:nout] are the callees, nin callers follow
}

// ID returns the node's dense index, stable for the life of the graph.
func (n *Node) ID() int { return int(n.id) }

func (n *Node) String() string { return n.Name }

// Decl declares one node to Assemble: its names and metadata.
type Decl struct {
	Name, Display string
	Meta          Meta
}

// Edge is a caller→callee pair of node IDs, the input of Assemble.
type Edge struct{ From, To int32 }

// Graph is a whole-program call graph. Name and Main are set by Assemble
// and only read afterwards.
type Graph struct {
	Name string
	Main string // entry-point function name ("" if unknown)

	main   int32    // Main's node ID, -1 if no node has that name
	nodes  []Node   // the slab, in ID order
	arena  []int32  // every node's callees and callers, by node ID
	labels []string // unit and TU names; labels[0] is ""
	edges  int
}

// Assemble returns the graph whose nodes are decls, in ID order, and whose
// edges are edges, repeats ignored: a node's callees and callers keep the
// order their edges first appear in.
func Assemble(name, main string, decls []Decl, edges []Edge) *Graph {
	n := len(decls)
	g := &Graph{Name: name, Main: main, main: -1, nodes: make([]Node, n), labels: []string{""}}
	label := map[string]int32{"": 0}
	intern := func(s string) int32 {
		if _, ok := label[s]; !ok {
			label[s] = int32(len(g.labels))
			g.labels = append(g.labels, s)
		}
		return label[s]
	}
	for i := range decls {
		d, m := &decls[i], &decls[i].Meta
		g.nodes[i] = Node{Name: d.Name, Display: d.Display, Statements: m.Statements, LOC: m.LOC, Flops: m.Flops,
			LoopDepth: m.LoopDepth, Cyclomatic: m.Cyclomatic, Inline: m.Inline, SystemHeader: m.SystemHeader,
			Virtual: m.Virtual, id: int32(i), unit: intern(m.Unit), tu: intern(m.TU)}
		if g.main < 0 && main != "" && d.Name == main {
			g.main = int32(i)
		}
	}
	// Each node's window is sized by its degrees, repeats counted: callees
	// from first, callers from first+out[i]. A repeat is looked up in the
	// shorter of the two lists: a hub's many edges end at nodes with few
	// callers, and the many callers of a hub have few callees.
	out, at := make([]int32, n), make([]int32, n+1)
	for _, e := range edges {
		out[e.From]++
		at[e.From+1]++
		at[e.To+1]++
	}
	for i := range n {
		at[i+1] += at[i]
		g.nodes[i].first = at[i]
	}
	arena := make([]int32, at[n])
	for _, e := range edges {
		from, to := &g.nodes[e.From], &g.nodes[e.To]
		list, x := arena[from.first:][:from.nout], e.To // from's callees
		if callers := arena[to.first+out[e.To]:][:to.nin]; len(callers) < len(list) {
			list, x = callers, e.From
		}
		if slices.Contains(list, x) {
			continue
		}
		g.edges++
		arena[from.first+from.nout], arena[to.first+out[e.To]+to.nin] = e.To, e.From
		from.nout++
		to.nin++
	}
	w := int32(0) // close the gaps the repeats left
	for i := range g.nodes {
		nd := &g.nodes[i]
		copy(arena[w:], arena[nd.first:][:nd.nout])
		copy(arena[w+nd.nout:], arena[nd.first+out[i]:][:nd.nin])
		nd.first, w = w, w+nd.nout+nd.nin
	}
	g.arena = arena[:w:w]
	return g
}

// Callees returns the IDs of n's callees. Callers must not modify the slice.
func (g *Graph) Callees(n *Node) []int32 { return g.arena[n.first : n.first+n.nout] }

// Callers returns the IDs of n's callers. Callers must not modify the slice.
func (g *Graph) Callers(n *Node) []int32 {
	return g.arena[n.first+n.nout : n.first+n.nout+n.nin]
}

// Meta returns n's metadata.
func (g *Graph) Meta(n *Node) Meta {
	return Meta{
		Statements: n.Statements, LOC: n.LOC, Flops: n.Flops, LoopDepth: n.LoopDepth, Cyclomatic: n.Cyclomatic,
		Inline: n.Inline, SystemHeader: n.SystemHeader, Virtual: n.Virtual, Unit: g.labels[n.unit], TU: g.labels[n.tu],
	}
}

// Node returns the named node, or nil. It scans the graph.
func (g *Graph) Node(name string) *Node {
	for i := range g.nodes {
		if g.nodes[i].Name == name {
			return &g.nodes[i]
		}
	}
	return nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all nodes in ID order. Callers must not modify the returned
// slice.
func (g *Graph) Nodes() []Node { return g.nodes }

// NodeByID returns the node with the given dense index.
func (g *Graph) NodeByID(id int) *Node {
	if id < 0 || id >= len(g.nodes) {
		return nil
	}
	return &g.nodes[id]
}

// HasEdge reports whether the caller→callee edge exists.
func (g *Graph) HasEdge(caller, callee string) bool {
	from, to := g.Node(caller), g.Node(callee)
	return from != nil && to != nil && slices.Contains(g.Callees(from), to.id)
}

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return g.edges }

// MainNode returns the entry-point node, or nil if unset/unknown.
func (g *Graph) MainNode() *Node {
	if g.main < 0 {
		return nil
	}
	return &g.nodes[g.main]
}

// Builder collects a graph's nodes and edges by name, for ReadJSON and for
// graphs built by hand; Graph assembles them. A node's ID is the order of
// its first mention; one first mentioned by an edge is a declaration stub
// (no metadata, Display its name) until its Decl is edited.
type Builder struct {
	Name, Main string
	// Decls holds the declarations by node ID; callers may edit one in
	// place through the ID Add returns.
	Decls []Decl

	index map[string]int32
	edges []Edge
}

// NewBuilder returns an empty builder.
func NewBuilder(name, main string) *Builder {
	return &Builder{Name: name, Main: main, index: map[string]int32{}}
}

// Add declares the named node with the given metadata and returns its ID. A
// node that exists is returned unchanged.
func (b *Builder) Add(name string, meta Meta) int32 {
	id, ok := b.index[name]
	if !ok {
		id = int32(len(b.Decls))
		b.index[name] = id
		b.Decls = append(b.Decls, Decl{Name: name, Display: name, Meta: meta})
	}
	return id
}

// Edge adds a caller→callee edge, adding missing nodes as stubs.
func (b *Builder) Edge(caller, callee string) {
	b.edges = append(b.edges, Edge{From: b.Add(caller, Meta{}), To: b.Add(callee, Meta{})})
}

// Graph assembles the graph built so far.
func (b *Builder) Graph() *Graph { return Assemble(b.Name, b.Main, b.Decls, b.edges) }
