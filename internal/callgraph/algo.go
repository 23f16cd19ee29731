package callgraph

// This file contains the graph algorithms backing the selectors:
// reachability, call-path sets, strongly connected components and
// statement aggregation (Iwainsky & Bischof, IPDPS 2016 — the heuristic
// cited in §II-B of the paper).

// Reachable returns the set of nodes reachable from any node in from,
// following callee edges when forward is true and caller edges otherwise.
// The seed nodes themselves are included.
func (g *Graph) Reachable(from *Set, forward bool) *Set {
	out := from.Clone()
	stack := make([]int32, 0, from.Count())
	from.ForEach(func(n *Node) bool {
		stack = append(stack, n.id)
		return true
	})
	for len(stack) > 0 {
		n := &g.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		next := g.Callees(n)
		if !forward {
			next = g.Callers(n)
		}
		for _, m := range next {
			if !out.HasID(int(m)) {
				out.AddID(int(m))
				stack = append(stack, m)
			}
		}
	}
	return out
}

// OnCallPath returns every node that lies on some call path from root to
// any node in targets — i.e. descendants(root) ∩ ancestors(targets),
// endpoints included. This implements the paper's "on a call path from main
// to ..." selector semantics. If root is nil the result is empty.
func (g *Graph) OnCallPath(root *Node, targets *Set) *Set {
	if root == nil {
		return g.NewSet()
	}
	seed := g.NewSet()
	seed.Add(root)
	down := g.Reachable(seed, true)
	up := g.Reachable(targets, false)
	return down.Intersect(up)
}

// SCC computes the strongly connected components of the graph using an
// iterative Tarjan algorithm (the graphs are far too deep for recursion at
// OpenFOAM scale). It returns the component index per node ID and the number
// of components. Component indices are in reverse topological order of the
// condensation: if component a calls component b then scc[a] > scc[b].
func (g *Graph) SCC() (comp []int, n int) {
	const unvisited = -1
	nn := g.Len()
	comp = make([]int, nn)
	index := make([]int, nn)
	low := make([]int, nn)
	onStack := make([]bool, nn)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ci int // next callee index to process
	}
	for root := 0; root < nn; root++ {
		if index[root] != unvisited {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ci == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			callees := g.Callees(&g.nodes[v])
			for f.ci < len(callees) {
				w := int(callees[f.ci])
				f.ci++
				if index[w] == unvisited {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All callees processed: close v.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = n
					if w == v {
						break
					}
				}
				n++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, n
}

// StatementAggregation computes, for every node, the maximum aggregated
// statement count along any call chain from root, where each function
// contributes its own statement count once per chain. Cycles are collapsed
// to their SCC: all members of a component share the component's total
// statement count. Unreachable nodes (all of them if root is nil) have
// aggregate 0.
func (g *Graph) StatementAggregation(root *Node) []int64 {
	agg := make([]int64, g.Len())
	if root == nil {
		return agg
	}
	comp, ncomp := g.SCC()

	// Total statements and membership per component.
	compStmts := make([]int64, ncomp)
	members := make([][]int32, ncomp)
	for i := range g.nodes {
		c := comp[i]
		compStmts[c] += int64(g.nodes[i].Statements)
		members[c] = append(members[c], int32(i))
	}
	// Condensation edges: comp(u) -> comp(v) for u->v with different comps.
	// Tarjan yields components in reverse topological order: an edge always
	// goes from a higher comp index to a lower one, so iterating components
	// from high to low visits all callers of a component before the
	// component itself.
	compAgg := make([]int64, ncomp)
	reached := make([]bool, ncomp)
	rootComp := comp[root.id]
	compAgg[rootComp] = compStmts[rootComp]
	reached[rootComp] = true
	for c := ncomp - 1; c >= 0; c-- {
		if !reached[c] {
			continue
		}
		for _, id := range members[c] {
			for _, m := range g.Callees(&g.nodes[id]) {
				mc := comp[m]
				if mc == c {
					continue
				}
				cand := compAgg[c] + compStmts[mc]
				if !reached[mc] || cand > compAgg[mc] {
					compAgg[mc] = cand
					reached[mc] = true
				}
			}
		}
	}
	for i, c := range comp {
		if reached[c] {
			agg[i] = compAgg[c]
		}
	}
	return agg
}

// Coarse implements the paper's coarse selector (§V-D): traversing the call
// graph top-down from root, a callee of a selected function is removed from
// the selection when that function is its only caller — collapsing trivial
// single-caller call chains such as the nested OpenFOAM solve() wrappers
// (Listing 3). The parent's selection is judged against the *input* set so
// that removals cascade down a chain. Functions in critical are always
// retained. The input set is not modified; if root is nil it is returned
// as a copy.
func (g *Graph) Coarse(root *Node, in *Set, critical *Set) *Set {
	out := in.Clone()
	if root == nil {
		return out
	}
	visited := g.NewSet()
	visited.Add(root)
	queue := append(make([]int32, 0, g.Len()), root.id) // each node is queued once at most
	for head := 0; head < len(queue); head++ {
		n := &g.nodes[queue[head]]
		for _, callee := range g.Callees(n) {
			m := &g.nodes[callee]
			if in.Has(n) && in.Has(m) && m.nin == 1 && (critical == nil || !critical.Has(m)) {
				out.Remove(m)
			}
			if !visited.Has(m) {
				visited.Add(m)
				queue = append(queue, callee)
			}
		}
	}
	return out
}
