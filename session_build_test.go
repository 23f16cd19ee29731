package capi_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	capi "capi"
	"capi/internal/callgraph"
	"capi/internal/compiler"
	"capi/internal/experiments"
	"capi/internal/metacg"
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
	for i := range g.Nodes() {
		n := g.NodeByID(i)
		fmt.Fprintf(h, "%d|%s|%s|%+v|", n.ID(), n.Name, n.Display, g.Meta(n))
		for _, c := range g.Callees(n) {
			fmt.Fprintf(h, "%d,", c)
		}
		fmt.Fprint(h, "|")
		for _, c := range g.Callers(n) {
			fmt.Fprintf(h, "%d,", c)
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// writeFunc renders a function of p field by field, its body op by op. The
// field list is explicit so that a field that moves or goes without any
// produced value changing leaves the hash alone; an MPI op's function is
// rendered where a call's callee is, and each kind's operand and an
// indirect call's runtime target where the op's own fields once held them.
func writeFunc(w io.Writer, p *prog.Program, f *prog.Function) {
	fmt.Fprintf(w, "%s|%s|%s|%s|%d|%d|%d|%d|%d|%t|%t|%t|%t|%t|%t|%d\n",
		f.Name, f.DisplayName, f.TU, f.Unit, f.Statements, f.LOC, f.Flops, f.LoopDepth, f.Cyclomatic,
		f.Inline, f.SystemHeader, f.Virtual, f.AddressTaken, f.StaticInit, f.VagueLinkage, f.Visibility)
	for _, op := range f.Ops {
		fmt.Fprintf(w, "  %d|%d|%s|%d|%t|%t|%s|%d\n",
			op.Kind, op.Work(), op.Callee, op.Count(), op.Virtual, op.ViaPointer, p.RuntimeTarget(op), op.Bytes())
	}
}

// progFNV folds the generated program — every function with its body, in
// insertion order — into one hash.
func progFNV(p *capi.Program) uint64 {
	h := fnv.New64a()
	for _, f := range p.Funcs() {
		writeFunc(h, p, f)
	}
	fmt.Fprintf(h, "%v|%v|%v\n", p.VirtualImpls, p.PointerTargets, p.StaticPointerSlots)
	return h.Sum64()
}

// buildFNV folds the compiled build — every image's symbols and sleds, and
// the layout of every function in program order — into one hash. A layout
// is rendered field by field, after the function's name and unit.
func buildFNV(s *capi.Session) uint64 {
	h := fnv.New64a()
	b := s.Build()
	fmt.Fprintf(h, "%v\n", b.CompileSeconds)
	for _, im := range b.Images {
		fmt.Fprintf(h, "%s|%v|%v|%d|%d|%+v|%+v\n", im.Name, im.Exe, im.Patchable, im.TextSize, im.NumFuncIDs, im.Symbols, im.Sleds)
	}
	for i, f := range s.Program().Funcs() {
		l := &b.Layout[i]
		fmt.Fprintf(h, "%s|%s|%t|%t|%d|%d|%t|%d|%d|%d|%t\n", f.Name, f.Unit,
			l.Inlined, l.HasSymbol, l.EntryOffset, l.Size, l.HasSleds, l.FuncID, l.EntrySled, l.ExitSled, l.StaticInstr)
	}
	return h.Sum64()
}

// TestSessionBuildGolden pins what a session build produces: the generated
// program, the whole-program graph and the compiled build as one hash each,
// and the four builtin selections (experiments.SpecNames) as a count plus a
// hash of the sorted IC names; the coarse ones run Coarse and OnCallPath
// over the graph's adjacency. The mpi and kernels values were taken from the
// serial build before the call graph went parallel, the coarse ones before
// it went compact; the program and build hashes
// were recorded with the field-by-field rendering above before Op,
// FuncLayout and Program were packed, so they hold that packing changed no
// produced value. A change that reorders node IDs or callees, or lets
// scheduling into the graph, moves a hash.
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
		"quickstart": {0xa45d1216117e2be3, 0xac56ace37316c233, 0xa01610458436f85, 63, 21,
			map[string]sel{"mpi": {3, 0x2bc8a15824173429}, "kernels": {4, 0x8b60a8c6e329dba},
				"mpi coarse": {1, 0xdce65ca50c4e62a6}, "kernels coarse": {4, 0x8b60a8c6e329dba}}},
		"lulesh": {0x198b5940827f9d5a, 0xfd4e68865dbcbaa2, 0xd16edd56310d23f2, 3360, 1599,
			map[string]sel{"mpi": {12, 0x2e0c21f8ce55b8ea}, "kernels": {15, 0x45462589db7066b7},
				"mpi coarse": {6, 0x9c7d0c50dc1fd06d}, "kernels coarse": {11, 0x307373e8e173e1f0}}},
		"openfoam": {0xcd085a7eb8edd66f, 0xd1c8f13fa5f01476, 0xad0ed84d72fa550e, 20520, 29919,
			map[string]sel{"mpi": {675, 0x5049c63165e96cb4}, "kernels": {335, 0xf9b1cf3c89d3c8a5},
				"mpi coarse": {597, 0xed8f7f0723229329}, "kernels coarse": {323, 0xaf337aba150fe48c}}},
		"webservice": {0xbf0b896e16dd074, 0xf4c3f02b6bf9226a, 0x624fc23014db1e0, 76, 67,
			map[string]sel{"mpi": {2, 0x7782d500f2e264c3}, "kernels": {3, 0xa5a911f5d3131731},
				"mpi coarse": {1, 0xdce65ca50c4e62a6}, "kernels coarse": {2, 0xe381a1d867a14a56}}},
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

// TestGraphJSONRoundTrip: a session's graph written in the MetaCG format and
// read back is, hash for hash, the graph the reader built before the graph
// went compact (ReadJSON numbers nodes in name order, so the hash is the
// read graph's own), and it writes the same bytes again.
func TestGraphJSONRoundTrip(t *testing.T) {
	golden := map[string]uint64{
		"quickstart": 0x5372814a724f9ad6, "lulesh": 0x64d8e6d2d15855bc,
		"openfoam": 0x22ce3eddb570014, "webservice": 0x8049742f72243d45,
	}
	for _, a := range buildApps {
		s, err := capi.NewAppSession(a.app, a.scale)
		if err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if err := s.Graph().WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		g, err := callgraph.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := graphFNV(g); got != golden[a.app] {
			t.Errorf("%s: read-back graph hash %#x, parent's %#x", a.app, got, golden[a.app])
		}
		if err := g.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: the read-back graph writes %d bytes that differ from the %d it was read from", a.app, second.Len(), first.Len())
		}
	}
}

// TestSessionBuildBudget keeps the per-node and per-edge allocations of
// the old per-TU build from coming back. Allocations of one openfoam@0.05
// build stay under a ceiling 15 % above the 44,748 it makes with one op
// arena per program, each image's tables sized once and no name map
// (44,808 with one, 64,270 with an op slice per function, 75,041 with a
// layout map, 173,840 with per-TU graphs and a merge, 264,408 before that),
// and ByTU hands out every function exactly once, in insertion order
// within its translation unit — what the per-TU reference the call graph
// is tested against (internal/metacg) relies on.
func TestSessionBuildBudget(t *testing.T) {
	const ceiling = 51_460
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
	seen := 0
	for _, tu := range p.ByTU() {
		last := -1
		for _, at := range tu.Funcs {
			if at <= last || p.Funcs()[at].TU != tu.Name {
				t.Fatalf("ByTU unit %q holds position %d out of place (after %d)", tu.Name, at, last)
			}
			last = at
			seen++
		}
	}
	if seen != p.NumFunctions() {
		t.Errorf("ByTU returned %d functions, program has %d", seen, p.NumFunctions())
	}
}

// TestRecordSizes holds the records a session keeps one of per function
// (or per op) to their packed sizes: at openfoam@0.1 every byte here is paid
// 41,042 times (103,768 for an op) by every instrumented process. A node was
// 144 bytes with its metadata's strings and two pointer slices for edges,
// a function 144 with int counts, and an op 56 with a field per kind's
// operand and a runtime target of its own.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"prog.Op", unsafe.Sizeof(prog.Op{}), 32},
		{"compiler.FuncLayout", unsafe.Sizeof(compiler.FuncLayout{}), 32},
		{"callgraph.Node", unsafe.Sizeof(callgraph.Node{}), 80},
		{"prog.Function", unsafe.Sizeof(prog.Function{}), 128},
	} {
		if r.size > r.max {
			t.Errorf("%s is %d bytes, at most %d", r.name, r.size, r.max)
		}
	}
}

// TestSessionFootprint bounds the heap one openfoam@0.05 session keeps live:
// what is freed when it is released. It retained 18.38 MB with a name-keyed
// layout map, 88-byte ops and per-function sled lists, 13.40 MB with a
// call graph of 144-byte nodes, a name map and pointer adjacency, 10.42 MB
// with 56-byte ops and a name-keyed map in the program, and 8.51 MB since;
// the ceiling is 10 % above that.
func TestSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceilingMB = 9.36
	var held, released runtime.MemStats
	s, err := capi.NewAppSession("openfoam", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// A sync.Pool keeps what earlier tests put there (an encoder's buffer
	// of several MB) through one collection; the second drops it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(s)
	s = nil
	runtime.GC()
	runtime.ReadMemStats(&released)
	mb := (float64(held.HeapAlloc) - float64(released.HeapAlloc)) / (1 << 20)
	t.Logf("one openfoam@0.05 session retains %.2f MB (ceiling %.2f)", mb, ceilingMB)
	if mb > ceilingMB {
		t.Errorf("one openfoam@0.05 session retains %.2f MB, ceiling %.2f", mb, ceilingMB)
	}
}

// TestSessionScaling holds every stage of a session to linear growth in
// the program's size. For openfoam at 0.05, 0.1, 0.2 and 0.4 it counts what
// each stage allocates (objects and bytes, from MemStats: deterministic, not
// timed) — generating the program, building the call graph, validating and
// compiling, the four builtin selections, and a first Start on 4 ranks —
// and fails if the log-log slope against the function count, between the
// smallest and the largest size, exceeds 1.15 for any of them. A step that
// grows quadratically fails it long before anyone runs paper size.
func TestSessionScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds openfoam up to scale 0.4")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const maxSlope = 1.15
	stages := []string{"generate", "call graph", "compile", "select", "Start"}
	scales := []float64{0.05, 0.1, 0.2, 0.4}
	type cost struct{ allocs, bytes float64 }
	measure := func(stage func()) cost {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stage()
		runtime.ReadMemStats(&after)
		return cost{float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	costs := make([][]cost, len(scales)) // by scale, then stage
	funcs := make([]float64, len(scales))
	for i, scale := range scales {
		var p *capi.Program
		var s *capi.Session
		var sel *capi.Selection
		costs[i] = []cost{
			measure(func() { p = capi.OpenFOAM(capi.OpenFOAMOptions{Scale: scale}) }),
			measure(func() { metacg.BuildWholeProgram(p) }),
			measure(func() { _, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: 2}); must(err) }),
		}
		funcs[i] = float64(p.NumFunctions())
		s, err := capi.NewSession(p, capi.SessionOptions{OptLevel: 2})
		must(err)
		costs[i] = append(costs[i], measure(func() {
			for _, name := range experiments.SpecNames {
				src, err := experiments.SpecSource(name)
				must(err)
				sel, err = s.Select(src)
				must(err)
			}
		}))
		var inst *capi.Instance
		costs[i] = append(costs[i], measure(func() { inst, err = s.Start(sel, capi.RunOptions{Ranks: 4}); must(err) }))
		inst.Close()
	}
	last := len(scales) - 1
	slope := func(first, end float64) float64 { return math.Log(end/first) / math.Log(funcs[last]/funcs[0]) }
	for j, stage := range stages {
		a, b := slope(costs[0][j].allocs, costs[last][j].allocs), slope(costs[0][j].bytes, costs[last][j].bytes)
		t.Logf("%-10s %9.0f → %9.0f allocs (slope %.2f), %6.1f → %6.1f MB (slope %.2f)", stage,
			costs[0][j].allocs, costs[last][j].allocs, a, costs[0][j].bytes/(1<<20), costs[last][j].bytes/(1<<20), b)
		if a > maxSlope || b > maxSlope {
			t.Errorf("%s grows with slope %.2f in allocations and %.2f in bytes over %.0f → %.0f functions, at most %.2f",
				stage, a, b, funcs[0], funcs[last], maxSlope)
		}
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
