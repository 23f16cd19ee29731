// Package metacg constructs whole-program call graphs from the synthetic
// program model. The model is the MetaCG workflow the paper builds on
// (Fig. 2, steps 3–4):
//
//  1. a local call graph is constructed per translation unit,
//  2. the local graphs are merged into a whole-program graph,
//  3. virtual calls are over-approximated by inserting edges to all known
//     inheriting definitions,
//  4. function-pointer calls are resolved statically where possible.
//
// BuildWholeProgram builds no local graphs: it makes one pass over the
// program that yields the graph those steps yield — the same node IDs, and
// callees and callers in the same order — and assembles it in one step.
package metacg

import (
	"capi/internal/callgraph"
	"capi/internal/prog"
)

// metaOf translates the program-model metadata into call-graph annotations.
func metaOf(f *prog.Function) callgraph.Meta {
	return callgraph.Meta{
		Statements:   f.Statements,
		LOC:          f.LOC,
		Flops:        f.Flops,
		LoopDepth:    f.LoopDepth,
		Cyclomatic:   f.Cyclomatic,
		Inline:       f.Inline,
		SystemHeader: f.SystemHeader,
		Virtual:      f.Virtual,
		Unit:         f.Unit,
		TU:           f.TU,
	}
}

// BuildWholeProgram constructs the whole-program call graph. A node's ID is
// its first appearance in the stream that lists, unit by unit in sorted TU
// name order, each function and then its direct callees, virtual base
// methods and MPI operations. A unit's edges go in in the order its
// functions first appear there (its local graph's order); the virtual and
// static pointer edges follow in Funcs order. Undefined names become stubs.
func BuildWholeProgram(p *prog.Program) *callgraph.Graph {
	fns := p.Funcs()
	// node holds a function's ID + 1 (0: unseen), source a node's function
	// (-1: a stub), stubs an undefined name's node ID.
	node := make([]int32, len(fns))
	source := make([]int32, 0, len(fns))
	stubs := map[string]int32{}
	function := func(i int) int32 {
		if node[i] == 0 {
			source = append(source, int32(i))
			node[i] = int32(len(source))
		}
		return node[i] - 1
	}
	named := func(name string) int32 {
		if i := p.Index(name); i >= 0 {
			return function(i)
		}
		if _, ok := stubs[name]; !ok {
			stubs[name] = int32(len(source))
			source = append(source, -1)
		}
		return stubs[name]
	}
	calls := 0 // ops bound the local edges; the virtual and pointer ones mostly fit too
	for _, f := range fns {
		calls += len(f.Ops)
	}
	edges := make([]callgraph.Edge, 0, calls)
	// refs holds a unit's references by node ID, function i's at span[i];
	// callers lists the unit's functions in order of first appearance.
	var refs []int32
	var callers []int
	span := make([][2]int32, len(fns))
	listed := make([]bool, len(fns))
	for _, tu := range p.ByTU() {
		refs, callers = refs[:0], callers[:0]
		list := func(id int32) {
			if i := source[id]; i >= 0 && !listed[i] && fns[i].TU == tu.Name {
				listed[i] = true
				callers = append(callers, int(i))
			}
		}
		for _, i := range tu.Funcs {
			list(function(i))
			span[i][0] = int32(len(refs))
			for j := range fns[i].Ops {
				op := &fns[i].Ops[j]
				if op.Kind == prog.OpWork || op.ViaPointer {
					continue
				}
				id := named(op.Callee) // virtual: the base method; MPI: the MPI function
				refs = append(refs, id)
				list(id)
			}
			span[i][1] = int32(len(refs))
		}
		for _, i := range callers {
			for _, to := range refs[span[i][0]:span[i][1]] {
				edges = append(edges, callgraph.Edge{From: node[i] - 1, To: to})
			}
		}
	}
	for i, f := range fns {
		for j := range f.Ops {
			if op := &f.Ops[j]; op.Kind == prog.OpCall && op.Virtual {
				for _, impl := range p.VirtualImpls[op.Callee] {
					edges = append(edges, callgraph.Edge{From: node[i] - 1, To: named(impl)})
				}
			}
		}
	}
	for i, f := range fns {
		for j := range f.Ops {
			if op := &f.Ops[j]; op.Kind == prog.OpCall && op.ViaPointer && p.StaticPointerSlots[op.Callee] {
				for _, tgt := range p.PointerTargets[op.Callee] {
					edges = append(edges, callgraph.Edge{From: node[i] - 1, To: named(tgt)})
				}
			}
		}
	}
	decls := make([]callgraph.Decl, len(source))
	for id, i := range source {
		if i >= 0 {
			decls[id] = callgraph.Decl{Name: fns[i].Name, Display: fns[i].Display(), Meta: metaOf(fns[i])}
		}
	}
	for name, id := range stubs {
		decls[id] = callgraph.Decl{Name: name, Display: name}
	}
	return callgraph.Assemble(p.Name, p.Main, decls, edges)
}
