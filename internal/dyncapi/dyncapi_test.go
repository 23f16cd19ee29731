package dyncapi

import (
	"bytes"
	"slices"
	"testing"

	"capi/internal/compiler"
	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// buildProg: exe{main, kernel} + lib.so{dso_fn, hidden_fn} + libmpi.
func buildProg(t *testing.T) *compiler.Build {
	t.Helper()
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("lib.so", prog.SharedObject)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)
	p.MustAddFunc(&prog.Function{Name: "MPI_Init", Unit: "libmpi.so"})
	p.MustAddFunc(&prog.Function{
		Name: "main", Unit: "app.exe", Statements: 30,
		Ops: []prog.Op{prog.MPICall("MPI_Init", 0), prog.Call("kernel", 1), prog.Call("dso_fn", 1), prog.Call("hidden_fn", 1)},
	})
	p.MustAddFunc(&prog.Function{Name: "kernel", Unit: "app.exe", Statements: 40, LoopDepth: 1})
	p.MustAddFunc(&prog.Function{Name: "dso_fn", Unit: "lib.so", Statements: 50})
	p.MustAddFunc(&prog.Function{Name: "hidden_fn", Unit: "lib.so", Statements: 50, Visibility: prog.Hidden})
	b, err := compiler.Compile(p, compiler.Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func setup(t *testing.T, b *compiler.Build) (*obj.Process, *xray.Runtime) {
	t.Helper()
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	return proc, rt
}

type fakeCtx struct {
	rank *mpi.Rank
	clk  vtime.Clock
}

func (f *fakeCtx) RankID() int {
	if f.rank != nil {
		return f.rank.ID()
	}
	return 0
}

func (f *fakeCtx) Clock() *vtime.Clock {
	if f.rank != nil {
		return f.rank.Clock()
	}
	return &f.clk
}

func (f *fakeCtx) MPIRank() *mpi.Rank { return f.rank }

func packedOf(t *testing.T, b *compiler.Build, xr *xray.Runtime, proc *obj.Process, name string) int32 {
	t.Helper()
	lay := b.LayoutOf(name)
	if lay == nil || !lay.HasSleds {
		t.Fatalf("%s has no sleds", name)
	}
	unit := b.Prog.Func(name).Unit
	lo := proc.Object(unit)
	objID, ok := xr.ObjectID(lo)
	if !ok {
		t.Fatalf("object %s not registered", unit)
	}
	id, err := xray.PackID(objID, lay.FuncID)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestICPatchingAndResolution(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	cfg := ic.New("app", "test", []string{"kernel", "dso_fn", "hidden_fn"})
	back := &CygBackend{}
	rt, err := New(proc, xr, cfg, back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.Objects != 2 { // exe + lib.so
		t.Fatalf("objects = %d", rep.Objects)
	}
	// hidden_fn is in the DSO with hidden visibility: unresolvable.
	if rep.Unresolved != 1 {
		t.Fatalf("unresolved = %d, want 1", rep.Unresolved)
	}
	// It was selected: the cross-check must notice.
	if rep.UnresolvedSelected != 1 {
		t.Fatalf("unresolved-selected = %d, want 1", rep.UnresolvedSelected)
	}
	// kernel and dso_fn are patched; main is not; hidden_fn cannot be.
	if rep.Patched != 2 {
		t.Fatalf("patched = %d, want 2", rep.Patched)
	}
	if !xr.Patched(packedOf(t, b, xr, proc, "kernel")) {
		t.Fatal("kernel not patched")
	}
	if xr.Patched(packedOf(t, b, xr, proc, "main")) {
		t.Fatal("main should not be patched")
	}
	if xr.Patched(packedOf(t, b, xr, proc, "hidden_fn")) {
		t.Fatal("hidden_fn must not be patched (unresolvable)")
	}
	if rt.Report().InitVirtualNs <= 0 {
		t.Fatal("no init cost accounted")
	}
	if rt.Backend() != back {
		t.Fatal("backend accessor wrong")
	}
}

func TestPatchAllMode(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, nil, &CygBackend{}, Options{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	// All four app functions have sleds and get patched, hidden included.
	if rep.Patched != 4 {
		t.Fatalf("patched = %d, want 4", rep.Patched)
	}
	if !xr.Patched(packedOf(t, b, xr, proc, "hidden_fn")) {
		t.Fatal("PatchAll must patch unresolved functions too")
	}
}

func TestNewValidation(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	if _, err := New(nil, xr, nil, &CygBackend{}, Options{PatchAll: true}); err == nil {
		t.Fatal("nil process should fail")
	}
	if _, err := New(proc, xr, nil, &CygBackend{}, Options{}); err == nil {
		t.Fatal("missing IC without PatchAll should fail")
	}
}

func TestCygBackendEvents(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	var addrs []uint64
	back := &CygBackend{
		EnterFunc: func(tc xray.ThreadCtx, addr uint64) { addrs = append(addrs, addr) },
		ExitFunc:  func(tc xray.ThreadCtx, addr uint64) { addrs = append(addrs, addr) },
	}
	rt, err := New(proc, xr, ic.New("a", "s", []string{"kernel"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	id := packedOf(t, b, xr, proc, "kernel")
	xr.Dispatch(tc, id, xray.Entry)
	xr.Dispatch(tc, id, xray.Exit)
	if len(addrs) != 2 || addrs[0] != addrs[1] {
		t.Fatalf("addrs = %v", addrs)
	}
	want, _ := xr.FunctionAddress(id)
	if addrs[0] != want {
		t.Fatalf("addr = %#x, want %#x", addrs[0], want)
	}
	_ = rt
}

func TestScorePBackendWithInjection(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	m, err := scorep.New(scorep.Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	resolver := scorep.NewResolverFromExecutable(proc)
	back := NewScorePBackend(m, resolver)
	rt, err := New(proc, xr, ic.New("a", "s", []string{"kernel", "dso_fn"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	// dso_fn was injected (dynamic symbol of lib.so); hidden_fn was not.
	if rep.SymbolsInjected < 1 {
		t.Fatalf("symbols injected = %d", rep.SymbolsInjected)
	}
	tc := &fakeCtx{}
	for _, name := range []string{"kernel", "dso_fn"} {
		id := packedOf(t, b, xr, proc, name)
		xr.Dispatch(tc, id, xray.Entry)
		tc.Clock().Advance(1000)
		xr.Dispatch(tc, id, xray.Exit)
	}
	prof := m.Profile()
	if prof.Region("kernel") == nil {
		t.Fatal("kernel missing from profile (exe resolution)")
	}
	if prof.Region("dso_fn") == nil {
		t.Fatal("dso_fn missing from profile — symbol injection failed")
	}
	if prof.UnknownEvents != 0 {
		t.Fatalf("unknown events = %d", prof.UnknownEvents)
	}
}

func TestScorePWithoutInjectionYieldsUnknown(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	m, _ := scorep.New(scorep.Options{Ranks: 1})
	resolver := scorep.NewResolverFromExecutable(proc)
	// Drive the measurement directly (no DynCaPI injection).
	tc := &fakeCtx{}
	lay := b.LayoutOf("dso_fn")
	lo := proc.Object(b.Prog.Func("dso_fn").Unit)
	m.CygEnter(tc, resolver, lo.Base+lay.EntryOffset)
	m.CygExit(tc, resolver, lo.Base+lay.EntryOffset)
	if m.Profile().UnknownEvents != 2 {
		t.Fatalf("unknown events = %d, want 2 (Score-P cannot resolve DSO addresses alone)", m.Profile().UnknownEvents)
	}
	_ = xr
}

func TestTALPBackendLifecycle(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	w, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mon := talp.New(w, talp.Options{})
	back := NewTALPBackend(mon)
	_, err = New(proc, xr, ic.New("a", "s", []string{"main", "kernel"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mainID := packedOf(t, b, xr, proc, "main")
	kernelID := packedOf(t, b, xr, proc, "kernel")
	err = w.Run(func(r *mpi.Rank) error {
		tc := &fakeCtx{rank: r}
		// main is entered before MPI_Init: registration fails permanently.
		xr.Dispatch(tc, mainID, xray.Entry)
		if err := r.Init(); err != nil {
			return err
		}
		// kernel after Init: recorded.
		xr.Dispatch(tc, kernelID, xray.Entry)
		r.Clock().Advance(vtime.Millisecond)
		xr.Dispatch(tc, kernelID, xray.Exit)
		xr.Dispatch(tc, mainID, xray.Exit) // unbalanced for failed region: ignored
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.Region("kernel") == nil {
		t.Fatal("kernel region missing")
	}
	if rep.Region("main") != nil {
		t.Fatal("main must not be recorded (pre-init)")
	}
	if len(rep.FailedPreInit) != 1 || rep.FailedPreInit[0] != "main" {
		t.Fatalf("failed pre-init = %v", rep.FailedPreInit)
	}
}

func TestBackendNames(t *testing.T) {
	if (&CygBackend{}).Name() != "none" {
		t.Fatal("cyg name")
	}
	m, _ := scorep.New(scorep.Options{Ranks: 1})
	if NewScorePBackend(m, scorep.NewResolver()).Name() != "scorep" {
		t.Fatal("scorep name")
	}
	w, _ := mpi.NewWorld(1, mpi.DefaultCostModel())
	if NewTALPBackend(talp.New(w, talp.Options{})).Name() != "talp" {
		t.Fatal("talp name")
	}
}

func TestInitCostGrowsWithPatching(t *testing.T) {
	b := buildProg(t)
	proc1, xr1 := setup(t, b)
	rtSmall, err := New(proc1, xr1, ic.New("a", "s", []string{"kernel"}), &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2 := buildProg(t)
	proc2, xr2 := setup(t, b2)
	rtFull, err := New(proc2, xr2, nil, &CygBackend{}, Options{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rtFull.Report().InitVirtualNs <= rtSmall.Report().InitVirtualNs {
		t.Fatalf("full patch init %d should exceed filtered %d",
			rtFull.Report().InitVirtualNs, rtSmall.Report().InitVirtualNs)
	}
}

// TestStaticIDSelection exercises the §VI-B(a) extension the paper
// proposes: an IC carrying statically determined packed IDs can patch a
// hidden DSO function that name-based resolution cannot reach.
func TestStaticIDSelection(t *testing.T) {
	b := buildProg(t)

	// Name-based IC: hidden_fn is selected but unresolvable, so it stays
	// unpatched and is flagged in the report (the paper's check).
	proc, xr := setup(t, b)
	cfg := ic.New("app", "", []string{"hidden_fn"})
	rt, err := New(proc, xr, cfg, &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.Patched != 0 || rep.UnresolvedSelected != 1 {
		t.Fatalf("name-based: patched %d, unresolvedSelected %d; want 0, 1",
			rep.Patched, rep.UnresolvedSelected)
	}

	// ID-based IC: the static mapping includes hidden_fn; DynCaPI patches
	// it without resolving the name.
	ids, err := b.StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ids["hidden_fn"]; !ok {
		t.Fatalf("static mapping misses hidden_fn: %v", ids)
	}
	proc2, xr2 := setup(t, b)
	cfg2 := ic.New("app", "", []string{"hidden_fn"}).WithIncludeIDs([]int32{ids["hidden_fn"]})
	if len(cfg2.IncludeIDs) != 1 {
		t.Fatalf("IncludeIDs = %v", cfg2.IncludeIDs)
	}
	rt2, err := New(proc2, xr2, cfg2, &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := rt2.Report()
	if rep2.Patched != 1 || rep2.PatchedByID != 1 {
		t.Fatalf("id-based: patched %d, byID %d; want 1, 1", rep2.Patched, rep2.PatchedByID)
	}
	// The static mapping must agree with the runtime registration order.
	want := packedOf(t, b, xr2, proc2, "hidden_fn")
	if cfg2.IncludeIDs[0] != want {
		t.Fatalf("static packed ID %d != runtime %d", cfg2.IncludeIDs[0], want)
	}
	if !xr2.Patched(want) {
		t.Fatal("hidden_fn sleds not patched")
	}
}

// TestStaticIDsRoundTripJSON ensures the ID list survives the IC file
// format (the paper proposes shipping the IDs inside the IC file).
func TestStaticIDsRoundTripJSON(t *testing.T) {
	b := buildProg(t)
	ids, err := b.StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ic.New("app", "spec", []string{"hidden_fn", "kernel"}).WithIncludeIDs([]int32{ids["hidden_fn"], ids["kernel"]})
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ic.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.IncludeIDs) != len(cfg.IncludeIDs) {
		t.Fatalf("IDs lost: %v vs %v", back.IncludeIDs, cfg.IncludeIDs)
	}
	for _, id := range cfg.IncludeIDs {
		if !slices.Contains(back.IncludeIDs, id) {
			t.Fatalf("id %d lost in round trip", id)
		}
	}
}
