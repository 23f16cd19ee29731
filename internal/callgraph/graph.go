// Package callgraph provides the whole-program call-graph representation the
// CaPI selection pipeline operates on (§III-A of the paper), together with
// dense node sets and the graph algebra used by the selectors: reachability,
// call-path computation, strongly connected components and statement
// aggregation.
//
// Graphs are append-only: nodes and edges are added during construction
// (internal/metacg) and then only read. Node identity is the function name.
package callgraph

import (
	"fmt"
	"slices"
)

// Meta is the per-function static metadata carried by a node. It mirrors the
// annotation set MetaCG attaches to call-graph nodes. The counts are int32:
// a graph keeps one Meta per function for the life of a session.
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

// Node is one function in the call graph.
type Node struct {
	id      int
	Name    string
	Display string // demangled name for reports; may equal Name
	Meta    Meta

	callees []*Node
	callers []*Node
}

// ID returns the node's dense index, stable for the life of the graph.
func (n *Node) ID() int { return n.id }

// Callees returns the outgoing edges. Callers must not modify the slice.
func (n *Node) Callees() []*Node { return n.callees }

// Callers returns the incoming edges. Callers must not modify the slice.
func (n *Node) Callers() []*Node { return n.callers }

func (n *Node) String() string { return n.Name }

// Graph is a whole-program call graph.
type Graph struct {
	Name string
	Main string // entry-point function name ("" if unknown)

	nodes map[string]*Node
	order []*Node
	edges int
}

// New returns an empty graph with room for about nodes nodes (0: unknown).
func New(name string, nodes int) *Graph {
	return &Graph{
		Name:  name,
		nodes: make(map[string]*Node, nodes),
		order: make([]*Node, 0, nodes),
	}
}

// hasEdge looks the edge up in the shorter of its two adjacency lists. No
// edge index is kept: a hub's many edges end at nodes with few callers (and
// the many callers of a hub have few callees), so the scan is short, and
// over all E edges of any graph it is bounded by O(E·√E).
func hasEdge(from, to *Node) bool {
	if len(to.callers) < len(from.callees) {
		return slices.Contains(to.callers, from)
	}
	return slices.Contains(from.callees, to)
}

// AddNode inserts a node with the given metadata and returns it. If the node
// already exists it is returned unchanged (use SetMeta to replace a stub's
// metadata).
func (g *Graph) AddNode(name string, meta Meta) *Node {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := &Node{id: len(g.order), Name: name, Display: name, Meta: meta}
	g.nodes[name] = n
	g.order = append(g.order, n)
	return n
}

// SetMeta replaces the metadata of an existing node. It reports whether the
// node exists.
func (g *Graph) SetMeta(name string, meta Meta) bool {
	n, ok := g.nodes[name]
	if !ok {
		return false
	}
	n.Meta = meta
	return true
}

// Node returns the named node, or nil.
func (g *Graph) Node(name string) *Node { return g.nodes[name] }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.order) }

// Nodes returns all nodes in insertion order. Callers must not modify the
// returned slice.
func (g *Graph) Nodes() []*Node { return g.order }

// NodeByID returns the node with the given dense index.
func (g *Graph) NodeByID(id int) *Node {
	if id < 0 || id >= len(g.order) {
		return nil
	}
	return g.order[id]
}

// AddEdge inserts a caller→callee edge, creating missing nodes with empty
// metadata (declaration stubs). Duplicate edges are ignored.
func (g *Graph) AddEdge(caller, callee string) {
	g.addEdge(g.AddNode(caller, Meta{}), g.AddNode(callee, Meta{}))
}

func (g *Graph) addEdge(from, to *Node) {
	if hasEdge(from, to) {
		return
	}
	g.edges++
	from.callees = append(from.callees, to)
	to.callers = append(to.callers, from)
}

// HasEdge reports whether the caller→callee edge exists.
func (g *Graph) HasEdge(caller, callee string) bool {
	from, to := g.nodes[caller], g.nodes[callee]
	return from != nil && to != nil && hasEdge(from, to)
}

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return g.edges }

// MainNode returns the entry-point node, or nil if unset/unknown.
func (g *Graph) MainNode() *Node {
	if g.Main == "" {
		return nil
	}
	return g.nodes[g.Main]
}

// Edge is a caller→callee pair of node IDs, the input of Assemble.
type Edge struct{ From, To int32 }

// Assemble returns the graph whose nodes are nodes, in ID order, and whose
// edges are edges, in insertion order: the graph that New, AddNode for each
// node and AddEdge for each edge would build, repeated edges ignored. Each
// node needs its Name, Display and Meta set; the graph keeps the slice as
// its node slab and cuts all adjacency lists from one arena sized by
// counted degrees.
func Assemble(name, main string, nodes []Node, edges []Edge) *Graph {
	g := &Graph{Name: name, Main: main, nodes: make(map[string]*Node, len(nodes)), order: make([]*Node, len(nodes))}
	deg := make([]int, 2*len(nodes)) // out-degrees, then in-degrees, repeats counted
	for _, e := range edges {
		deg[e.From]++
		deg[len(nodes)+int(e.To)]++
	}
	arena := make([]*Node, 2*len(edges))
	for i := range nodes {
		n := &nodes[i]
		n.id = i
		g.nodes[n.Name] = n
		g.order[i] = n
		out, in := deg[i], deg[len(nodes)+i]
		n.callees, n.callers, arena = arena[:0:out], arena[out:out:out+in], arena[out+in:]
	}
	for _, e := range edges {
		g.addEdge(&nodes[e.From], &nodes[e.To])
	}
	return g
}

// Validate performs internal consistency checks and is used by tests.
func (g *Graph) Validate() error {
	for i, n := range g.order {
		if n.id != i {
			return fmt.Errorf("callgraph: node %q has id %d at position %d", n.Name, n.id, i)
		}
		if g.nodes[n.Name] != n {
			return fmt.Errorf("callgraph: node %q index mismatch", n.Name)
		}
	}
	if len(g.nodes) != len(g.order) {
		return fmt.Errorf("callgraph: %d named vs %d ordered nodes", len(g.nodes), len(g.order))
	}
	return nil
}
