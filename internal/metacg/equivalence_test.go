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
	b := callgraph.NewBuilder(p.Name+":"+tu, "")
	for _, f := range p.Funcs() {
		if f.TU != tu {
			continue
		}
		name := f.Name
		id := b.Add(name, metaOf(f))
		b.Decls[id].Display = f.Display()
		if name == p.Main {
			b.Main = name
		}
		for _, op := range f.Ops {
			if op.Kind != prog.OpWork && !op.ViaPointer {
				b.Edge(name, op.Callee) // virtual: edge to base method; MPI: the MPI function
			}
		}
	}
	return b.Graph()
}

// merge is MetaCG's step 2, the other half of the reference: it folds local
// into b — nodes in local's order, a definition's metadata and display name
// over a stub's, then every edge caller by caller.
func merge(b *callgraph.Builder, local *callgraph.Graph) {
	for i := range local.Nodes() {
		n := &local.Nodes()[i]
		meta, next := local.Meta(n), int32(len(b.Decls))
		id := b.Add(n.Name, meta)
		if d := &b.Decls[id]; id == next {
			d.Display = n.Display
		} else if d.Meta == (callgraph.Meta{}) && meta != (callgraph.Meta{}) {
			d.Meta, d.Display = meta, n.Display
		}
	}
	for i := range local.Nodes() {
		n := &local.Nodes()[i]
		for _, c := range local.Callees(n) {
			b.Edge(n.Name, local.NodeByID(int(c)).Name)
		}
	}
}

// serialWholeProgram is the reference BuildWholeProgram is held to: one
// TU-local graph after the other, merged in sorted TU order, then the
// definition, virtual and pointer passes — MetaCG's steps one at a time.
func serialWholeProgram(p *prog.Program) *callgraph.Graph {
	b := callgraph.NewBuilder(p.Name, p.Main)
	for _, tu := range p.ByTU() {
		merge(b, BuildLocalTU(p, tu.Name))
	}
	for _, f := range p.Funcs() {
		id := b.Add(f.Name, metaOf(f))
		d := &b.Decls[id]
		if d.Meta == (callgraph.Meta{}) {
			d.Meta = metaOf(f)
		}
		d.Display = f.Display()
	}
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind == prog.OpCall && op.Virtual {
				for _, impl := range p.VirtualImpls[op.Callee] {
					b.Edge(f.Name, impl)
				}
			}
		}
	}
	for _, f := range p.Funcs() {
		for _, op := range f.Ops {
			if op.Kind == prog.OpCall && op.ViaPointer && p.StaticPointerSlots[op.Callee] {
				for _, tgt := range p.PointerTargets[op.Callee] {
					b.Edge(f.Name, tgt)
				}
			}
		}
	}
	return b.Graph()
}

// sameGraph compares everything a selector can observe.
func sameGraph(t *testing.T, what string, got, want *callgraph.Graph) {
	t.Helper()
	if got.Name != want.Name || got.Main != want.Main || got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %q main %q %d nodes %d edges, want %q %q %d %d", what,
			got.Name, got.Main, got.Len(), got.NumEdges(), want.Name, want.Main, want.Len(), want.NumEdges())
	}
	for i := range want.Nodes() {
		g, w := got.NodeByID(i), want.NodeByID(i)
		if g.ID() != w.ID() || g.Name != w.Name || g.Display != w.Display || got.Meta(g) != want.Meta(w) {
			t.Fatalf("%s: node %d is %d %q (%q) %+v, want %d %q (%q) %+v", what, i,
				g.ID(), g.Name, g.Display, got.Meta(g), w.ID(), w.Name, w.Display, want.Meta(w))
		}
		if gc, wc := got.Callees(g), want.Callees(w); !slices.Equal(gc, wc) {
			t.Fatalf("%s: callees of %q are %v, want %v", what, w.Name, gc, wc)
		}
		if gc, wc := got.Callers(g), want.Callers(w); !slices.Equal(gc, wc) {
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
