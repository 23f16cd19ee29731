package capi_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	capi "capi"
	"capi/internal/experiments"
	"capi/internal/prog"
)

// buildApps are the four stand-in applications at the sizes the build tests
// use (openfoam at half the repo benchmark's scale).
var buildApps = []struct {
	app   string
	scale float64
}{
	{"quickstart", 0}, {"lulesh", 0}, {"openfoam", 0.05}, {"webservice", 0},
}

// graphFNV folds everything a selector can observe of a call graph — node
// order and IDs, names, display names, metadata, callee and caller order —
// into one hash.
func graphFNV(g *capi.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d\n", g.Name, g.Main, g.Len(), g.NumEdges())
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "%d|%s|%s|%+v|", n.ID(), n.Name, n.Display, n.Meta)
		for _, c := range n.Callees() {
			fmt.Fprintf(h, "%d,", c.ID())
		}
		fmt.Fprint(h, "|")
		for _, c := range n.Callers() {
			fmt.Fprintf(h, "%d,", c.ID())
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// progFNV folds the generated program — every function with its body, in
// insertion order — into one hash.
func progFNV(p *capi.Program) uint64 {
	h := fnv.New64a()
	for _, name := range p.Functions() {
		fmt.Fprintf(h, "%+v\n", *p.Func(name))
	}
	fmt.Fprintf(h, "%v|%v|%v\n", p.VirtualImpls, p.PointerTargets, p.StaticPointerSlots)
	return h.Sum64()
}

// buildFNV folds the compiled build — every image's symbols and sleds, and
// the layout of every function in program order — into one hash.
func buildFNV(s *capi.Session) uint64 {
	h := fnv.New64a()
	b := s.Build()
	fmt.Fprintf(h, "%v\n", b.CompileSeconds)
	for _, im := range b.Images {
		fmt.Fprintf(h, "%s|%v|%v|%d|%d|%+v|%+v\n", im.Name, im.Exe, im.Patchable, im.TextSize, im.NumFuncIDs, im.Symbols, im.Sleds)
	}
	for _, name := range s.Program().Functions() {
		fmt.Fprintf(h, "%+v\n", *b.Layout[name])
	}
	return h.Sum64()
}

// TestSessionBuildGolden pins what a session build produces to the serial
// build of PR 21's parent commit, where these numbers were taken: the
// generated program, the whole-program graph and the compiled build as one
// hash each, and the builtin mpi and kernels selections as a count plus a
// hash of the sorted IC names. A change that reorders node IDs or callees,
// or lets scheduling into the graph, moves a hash.
func TestSessionBuildGolden(t *testing.T) {
	type sel struct {
		n   int
		fnv uint64
	}
	golden := map[string]struct {
		prog, graph, build uint64
		nodes, edges       int
		sels               map[string]sel
	}{
		"quickstart": {0xd31364834152085f, 0xac56ace37316c233, 0x9aeebbb1380af171, 63, 21,
			map[string]sel{"mpi": {3, 0x2bc8a15824173429}, "kernels": {4, 0x8b60a8c6e329dba}}},
		"lulesh": {0x181fcb50410234e4, 0xfd4e68865dbcbaa2, 0xbc9bbf2e21e1b024, 3360, 1599,
			map[string]sel{"mpi": {12, 0x2e0c21f8ce55b8ea}, "kernels": {15, 0x45462589db7066b7}}},
		"openfoam": {0xbe95b48f8885912d, 0xd1c8f13fa5f01476, 0x5f8c723fd82601e8, 20520, 29919,
			map[string]sel{"mpi": {675, 0x5049c63165e96cb4}, "kernels": {335, 0xf9b1cf3c89d3c8a5}}},
		"webservice": {0x28720e16377c664, 0xf4c3f02b6bf9226a, 0x4565603ff1025e40, 76, 67,
			map[string]sel{"mpi": {2, 0x7782d500f2e264c3}, "kernels": {3, 0xa5a911f5d3131731}}},
	}
	for _, a := range buildApps {
		want := golden[a.app]
		s, err := capi.NewAppSession(a.app, a.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := progFNV(s.Program()); got != want.prog {
			t.Errorf("%s: program hash %#x, parent's %#x", a.app, got, want.prog)
		}
		if g := s.Graph(); g.Len() != want.nodes || g.NumEdges() != want.edges || graphFNV(g) != want.graph {
			t.Errorf("%s: graph %d nodes %d edges hash %#x, parent's %d %d %#x",
				a.app, g.Len(), g.NumEdges(), graphFNV(g), want.nodes, want.edges, want.graph)
		}
		if got := buildFNV(s); got != want.build {
			t.Errorf("%s: build hash %#x, parent's %#x", a.app, got, want.build)
		}
		for b, w := range want.sels {
			src, err := experiments.SpecSource(b)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := s.Select(src)
			if err != nil {
				t.Fatal(err)
			}
			names := slices.Sorted(slices.Values(sel.IC.Include))
			h := fnv.New64a()
			for _, n := range names {
				fmt.Fprintln(h, n)
			}
			if len(names) != w.n || h.Sum64() != w.fnv {
				t.Errorf("%s %s: %d IC names hash %#x, parent's %d %#x", a.app, b, len(names), h.Sum64(), w.n, w.fnv)
			}
		}
	}
}

// TestSessionBuildBudget keeps the per-node and per-edge allocations of
// the old per-TU build from coming back. Allocations of one openfoam@0.05
// build stay under a ceiling 15 % above the 75,041 it makes with the
// one-pass call graph (173,840 with per-TU graphs and a merge, 264,408
// before that), and FunctionsInTU over all translation units hands out
// every function exactly once, in insertion order — what the per-TU
// reference the call graph is tested against (internal/metacg) relies on.
func TestSessionBuildBudget(t *testing.T) {
	const ceiling = 86_298
	if !raceEnabled { // the detector allocates on its own account
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := capi.NewAppSession("openfoam", 0.05); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("one openfoam@0.05 session build made %.0f allocations, ceiling %d", allocs, ceiling)
		}
	}
	p := capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.05})
	position := make(map[string]int, p.NumFunctions())
	for i, name := range p.Functions() {
		position[name] = i
	}
	seen := 0
	for _, tu := range p.TranslationUnits() {
		last := -1
		for _, name := range p.FunctionsInTU(tu) {
			at, ok := position[name]
			if !ok || at <= last || p.Func(name).TU != tu {
				t.Fatalf("FunctionsInTU(%q) returns %q out of place (position %d after %d)", tu, name, at, last)
			}
			last = at
			seen++
		}
	}
	if seen != p.NumFunctions() {
		t.Errorf("FunctionsInTU over all TUs returned %d functions, program has %d", seen, p.NumFunctions())
	}
}

// TestRunVanillaConcurrent: the lazily compiled vanilla build is shared by
// every caller, and ctl hands one Session to all its handler goroutines. Run
// under -race.
func TestRunVanillaConcurrent(t *testing.T) {
	s, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	secs := make([]float64, 2)
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if secs[i], err = s.RunVanilla(2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if secs[0] <= 0 || secs[0] != secs[1] {
		t.Errorf("concurrent vanilla runs took %v and %v virtual seconds, want one positive value", secs[0], secs[1])
	}
}

// TestNewSessionInvalidProgram: the one validation left in NewSession reports
// what the three did, in the same words.
func TestNewSessionInvalidProgram(t *testing.T) {
	p := capi.Quickstart()
	p.Func("main").Ops = append(p.Func("main").Ops, prog.Call("no_such_function", 1))
	_, err := capi.NewSession(p, capi.SessionOptions{})
	const want = `capi: prog "quickstart": main calls undefined function "no_such_function"`
	if err == nil || err.Error() != want {
		t.Fatalf("NewSession on an invalid program: %v, want %s", err, want)
	}
	if _, err := capi.NewSession(nil, capi.SessionOptions{}); err == nil {
		t.Fatal("NewSession(nil) succeeded")
	}
}
