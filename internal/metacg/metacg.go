// Package metacg constructs whole-program call graphs from the synthetic
// program model, mirroring the MetaCG workflow the paper builds on
// (Fig. 2, steps 3–4):
//
//  1. a local call graph is constructed per translation unit,
//  2. the local graphs are merged into a whole-program graph,
//  3. virtual calls are over-approximated by inserting edges to all known
//     inheriting definitions,
//  4. function-pointer calls are resolved statically where possible.
package metacg

import (
	"runtime"
	"sync/atomic"

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

// BuildLocalTU constructs the translation-unit-local call graph: definition
// nodes for the functions defined in tu, declaration stubs and edges for
// everything they reference. Virtual and pointer callsites produce an edge
// to the base method / slot placeholder only; whole-program expansion
// happens during the merge.
func BuildLocalTU(p *prog.Program, tu string) *callgraph.Graph {
	var fns []*prog.Function
	for _, name := range p.FunctionsInTU(tu) {
		fns = append(fns, p.Func(name))
	}
	return buildLocal(p, prog.TU{Name: tu, Funcs: fns})
}

func buildLocal(p *prog.Program, tu prog.TU) *callgraph.Graph {
	g := callgraph.New(p.Name+":"+tu.Name, len(tu.Funcs))
	for _, f := range tu.Funcs {
		n := g.AddNode(f.Name, metaOf(f))
		n.Display = f.Display()
		if f.Name == p.Main {
			g.Main = f.Name
		}
		for _, op := range f.Ops {
			switch op.Kind {
			case prog.OpCall:
				if op.ViaPointer {
					continue // unresolved at TU scope
				}
				g.AddEdge(f.Name, op.Callee) // virtual: edge to base method
			case prog.OpMPI:
				g.AddEdge(f.Name, op.MPI)
			}
		}
	}
	return g
}

// BuildWholeProgram constructs the whole-program call graph by merging all
// translation-unit-local graphs and applying virtual-call over-approximation
// and static pointer resolution. The local graphs are built on up to
// GOMAXPROCS goroutines and merged in sorted TU order as they arrive, so the
// result — node IDs, callee and caller order — does not depend on scheduling.
// The program must not be modified meanwhile.
func BuildWholeProgram(p *prog.Program) *callgraph.Graph {
	g := callgraph.New(p.Name, p.NumFunctions())
	g.Main = p.Main
	tus := p.ByTU()
	// One slot per TU, filled exactly once: a send never blocks, so the
	// workers finish whether or not the merge below keeps up.
	locals := make([]chan *callgraph.Graph, len(tus))
	for i := range locals {
		locals[i] = make(chan *callgraph.Graph, 1)
	}
	var next atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(tus)); w > 0; w-- {
		go func() {
			for i := int(next.Add(1)) - 1; i < len(tus); i = int(next.Add(1)) - 1 {
				locals[i] <- buildLocal(p, tus[i])
			}
		}()
	}
	for _, local := range locals {
		g.Merge(<-local)
	}
	// Ensure every definition has its metadata even if only seen as a stub
	// during merging order.
	for _, f := range p.Funcs() {
		meta := metaOf(f)
		n := g.AddNode(f.Name, meta)
		if n.Meta == (callgraph.Meta{}) {
			n.Meta = meta
		}
		n.Display = f.Display()
	}
	// Virtual-call over-approximation: for every virtual callsite, insert
	// edges to all known inheriting definitions.
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind != prog.OpCall || !op.Virtual {
				continue
			}
			for _, impl := range p.VirtualImpls[op.Callee] {
				g.AddEdge(f.Name, impl)
			}
		}
	}
	// Static function-pointer resolution.
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind != prog.OpCall || !op.ViaPointer {
				continue
			}
			if !p.StaticPointerSlots[op.Callee] {
				continue
			}
			for _, tgt := range p.PointerTargets[op.Callee] {
				g.AddEdge(f.Name, tgt)
			}
		}
	}
	return g
}

// CallEdge is one observed caller→callee pair from a measured profile.
type CallEdge struct {
	Caller string
	Callee string
}
