package metacg

import (
	"slices"
	"testing"

	"capi/internal/callgraph"
	"capi/internal/prog"
	"capi/internal/workload"
)

// BuildLocalTU is MetaCG's step 1, kept here as half of the reference
// BuildWholeProgram is held to: the translation-unit-local call graph, with
// definition nodes for the functions defined in tu and declaration stubs and
// edges for everything they reference. Virtual callsites produce an edge to
// the base method only, and pointer callsites none; whole-program expansion
// happens after the merge.
func BuildLocalTU(p *prog.Program, tu string) *callgraph.Graph {
	g := callgraph.New(p.Name+":"+tu, 0)
	for _, name := range p.FunctionsInTU(tu) {
		f := p.Func(name)
		g.AddNode(name, metaOf(f)).Display = f.Display()
		if name == p.Main {
			g.Main = name
		}
		for _, op := range f.Ops {
			if op.Kind != prog.OpWork && !op.ViaPointer {
				g.AddEdge(name, op.Callee) // virtual: edge to base method; MPI: the MPI function
			}
		}
	}
	return g
}

// merge is MetaCG's step 2, the other half of the reference: it folds local
// into g — nodes in local's order, a definition's metadata and display name
// over a stub's, then every edge caller by caller.
func merge(g, local *callgraph.Graph) {
	for _, n := range local.Nodes() {
		have := g.Node(n.Name)
		if have == nil {
			g.AddNode(n.Name, n.Meta).Display = n.Display
		} else if have.Meta == (callgraph.Meta{}) && n.Meta != (callgraph.Meta{}) {
			g.SetMeta(n.Name, n.Meta)
			have.Display = n.Display
		}
	}
	for _, n := range local.Nodes() {
		for _, c := range n.Callees() {
			g.AddEdge(n.Name, c.Name)
		}
	}
}

// serialWholeProgram is the reference BuildWholeProgram is held to: one
// TU-local graph after the other, merged in TranslationUnits order, then the
// definition, virtual and pointer passes — MetaCG's steps one at a time.
func serialWholeProgram(p *prog.Program) *callgraph.Graph {
	g := callgraph.New(p.Name, 0)
	g.Main = p.Main
	for _, tu := range p.TranslationUnits() {
		merge(g, BuildLocalTU(p, tu))
	}
	for _, f := range p.Funcs() {
		n := g.AddNode(f.Name, metaOf(f))
		if n.Meta == (callgraph.Meta{}) {
			n.Meta = metaOf(f)
		}
		n.Display = f.Display()
	}
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind == prog.OpCall && op.Virtual {
				for _, impl := range p.VirtualImpls[op.Callee] {
					g.AddEdge(f.Name, impl)
				}
			}
		}
	}
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind == prog.OpCall && op.ViaPointer && p.StaticPointerSlots[op.Callee] {
				for _, tgt := range p.PointerTargets[op.Callee] {
					g.AddEdge(f.Name, tgt)
				}
			}
		}
	}
	return g
}

func ids(ns []*callgraph.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID()
	}
	return out
}

// sameGraph compares everything a selector can observe.
func sameGraph(t *testing.T, what string, got, want *callgraph.Graph) {
	t.Helper()
	if got.Name != want.Name || got.Main != want.Main || got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %q main %q %d nodes %d edges, want %q %q %d %d", what,
			got.Name, got.Main, got.Len(), got.NumEdges(), want.Name, want.Main, want.Len(), want.NumEdges())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, w := range want.Nodes() {
		g := got.Nodes()[i]
		if g.ID() != w.ID() || g.Name != w.Name || g.Display != w.Display || g.Meta != w.Meta {
			t.Fatalf("%s: node %d is %d %q (%q) %+v, want %d %q (%q) %+v", what, i,
				g.ID(), g.Name, g.Display, g.Meta, w.ID(), w.Name, w.Display, w.Meta)
		}
		if gc, wc := ids(g.Callees()), ids(w.Callees()); !slices.Equal(gc, wc) {
			t.Fatalf("%s: callees of %q are %v, want %v", what, w.Name, gc, wc)
		}
		if gc, wc := ids(g.Callers()), ids(w.Callers()); !slices.Equal(gc, wc) {
			t.Fatalf("%s: callers of %q are %v, want %v", what, w.Name, gc, wc)
		}
	}
}

// TestBuildWholeProgramEqualsSerial: for all four apps the one-pass build
// equals the serial reference node for node and edge for edge. The build
// runs on the calling goroutine alone, so one build per app says it all.
func TestBuildWholeProgramEqualsSerial(t *testing.T) {
	apps := map[string]*prog.Program{
		"quickstart": workload.Quickstart(),
		"lulesh":     workload.Lulesh(workload.LuleshOptions{}),
		"openfoam":   workload.OpenFOAM(workload.OpenFOAMOptions{Scale: 0.05}),
		"webservice": workload.Webservice(),
	}
	for name, p := range apps {
		sameGraph(t, name, BuildWholeProgram(p), serialWholeProgram(p))
	}
}
