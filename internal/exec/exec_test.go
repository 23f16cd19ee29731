package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"capi/internal/compiler"
	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/prog"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// testProgram builds a small MPI app:
//
//	main: init_stuff, MPI_Init, 3x step{ kernel(x2), MPI_Allreduce }, MPI_Finalize
//	kernel: work 1ms; calls tiny (auto-inlined) twice
//	init_stuff: work only (runs before MPI_Init)
func testProgram() *prog.Program {
	p := prog.New("testapp", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)
	for _, op := range []string{"MPI_Init", "MPI_Finalize", "MPI_Allreduce", "MPI_Sendrecv"} {
		p.MustAddFunc(&prog.Function{Name: op, Unit: "libmpi.so", SystemHeader: true})
	}
	p.MustAddFunc(&prog.Function{
		Name: "main", Unit: "app.exe", Statements: 30,
		Ops: []prog.Op{
			prog.Call("init_stuff", 1),
			prog.MPICall("MPI_Init", 0),
			prog.Call("step", 3),
			prog.MPICall("MPI_Finalize", 0),
		},
	})
	p.MustAddFunc(&prog.Function{
		Name: "init_stuff", Unit: "app.exe", Statements: 20,
		Ops: []prog.Op{prog.Work(100 * vtime.Microsecond)},
	})
	p.MustAddFunc(&prog.Function{
		Name: "step", Unit: "app.exe", Statements: 25, LoopDepth: 1,
		Ops: []prog.Op{
			prog.Call("kernel", 2),
			prog.MPICall("MPI_Allreduce", 8),
		},
	})
	p.MustAddFunc(&prog.Function{
		Name: "kernel", Unit: "app.exe", Statements: 40, Flops: 100, LoopDepth: 2,
		Ops: []prog.Op{prog.Work(vtime.Millisecond), prog.Call("tiny", 2)},
	})
	p.MustAddFunc(&prog.Function{
		Name: "tiny", Unit: "app.exe", Statements: 2,
		Ops: []prog.Op{prog.Work(10 * vtime.Nanosecond)},
	})
	return p
}

// setup compiles, loads and wires the engine; returns engine + runtime.
func setup(t *testing.T, p *prog.Program, withXRay bool, ranks int) (*Engine, *xray.Runtime, *mpi.World) {
	t.Helper()
	b, err := compiler.Compile(p, compiler.Options{XRay: withXRay})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	var rt *xray.Runtime
	if withXRay {
		rt, err = xray.NewRuntime(proc)
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := mpi.NewWorld(ranks, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Build: b, Proc: proc, XRay: rt, World: w})
	if err != nil {
		t.Fatal(err)
	}
	return e, rt, w
}

// patchAll patches every function of every registered object ("xray full").
func patchAll(t *testing.T, rt *xray.Runtime) {
	t.Helper()
	var ids []int32
	for object := range xray.MaxDSOs + 1 {
		lo, ok := rt.Object(uint8(object))
		if !ok {
			continue
		}
		for fn := uint32(0); fn < lo.Image.NumFuncIDs; fn++ {
			id, err := xray.PackID(uint8(object), fn)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	if _, err := rt.PatchBatch(ids, true); err != nil {
		t.Fatal(err)
	}
}

func TestVanillaRun(t *testing.T) {
	e, _, w := setup(t, testProgram(), false, 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 steps x 2 kernels x 1ms plus overheads.
	for _, r := range w.Ranks() {
		if r.Clock().Now() < 6*vtime.Millisecond {
			t.Fatalf("rank %d time %d too small", r.ID(), r.Clock().Now())
		}
		if !r.Finalized() {
			t.Fatal("rank did not finalize")
		}
	}
	if e.TotalEvents() != 0 {
		t.Fatalf("vanilla run dispatched %d events", e.TotalEvents())
	}
	// main + init + 3*step + 6*kernel + 12*tiny = 23 calls per rank.
	if calls := e.calls.Load(); calls != 2*23 {
		t.Fatalf("%d calls, want 46", calls)
	}
}

func TestInactiveXRayNearZeroOverhead(t *testing.T) {
	ev, _, wv := setup(t, testProgram(), false, 1)
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	ei, _, wi := setup(t, testProgram(), true, 1)
	if err := ei.Run(); err != nil {
		t.Fatal(err)
	}
	vanilla := wv.Rank(0).Clock().Now()
	inactive := wi.Rank(0).Clock().Now()
	if inactive < vanilla {
		t.Fatalf("inactive %d < vanilla %d", inactive, vanilla)
	}
	// Near-zero: < 0.1% overhead.
	if delta := inactive - vanilla; delta*1000 > vanilla {
		t.Fatalf("inactive sled overhead too high: %d of %d", delta, vanilla)
	}
}

func TestPatchedSledsDispatch(t *testing.T) {
	e, rt, _ := setup(t, testProgram(), true, 2)
	var mu sync.Mutex
	counts := map[string]int{}
	rt.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
		name, err := dispatchedName(rt, id)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		counts[name+":"+kind.String()]++
		mu.Unlock()
		tc.Clock().Advance(100)
	})
	// Patch only kernel.
	lay := e.cfg.Build.LayoutOf("kernel")
	packed, _ := xray.PackID(0, lay.FuncID)
	if _, err := rt.PatchBatch([]int32{packed}, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 ranks x 3 steps x 2 kernel calls = 12 enters and 12 exits.
	if counts["kernel:entry"] != 12 || counts["kernel:exit"] != 12 {
		t.Fatalf("counts = %v", counts)
	}
	if len(counts) != 2 {
		t.Fatalf("unexpected events: %v", counts)
	}
	if e.TotalEvents() != 24 {
		t.Fatalf("TotalEvents = %d, want 24", e.TotalEvents())
	}
}

func TestInlinedFunctionsProduceNoEvents(t *testing.T) {
	e, rt, _ := setup(t, testProgram(), true, 1)
	var events int
	rt.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) { events++ })
	patchAll(t, rt)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// tiny is auto-inlined: no sleds. All other calls produce events:
	// main(1) + init_stuff(1) + step(3) + kernel(6) = 11 enters + 11 exits.
	if events != 22 {
		t.Fatalf("events = %d, want 22", events)
	}
}

func TestVirtualAndPointerDispatch(t *testing.T) {
	p := prog.New("vapp", "main")
	p.MustAddUnit("e", prog.Executable)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "e", Statements: 20,
		Ops: []prog.Op{
			prog.VCall("Base::solve", 2),            // defaults to A::solve
			p.VCallTo("Base::solve", "B::solve", 2), // explicit dynamic type
			p.PtrCallTo("hook", "cb", 2),
		}})
	p.MustAddFunc(&prog.Function{Name: "A::solve", Unit: "e", Virtual: true, Statements: 20, Ops: []prog.Op{prog.Work(10)}})
	p.MustAddFunc(&prog.Function{Name: "B::solve", Unit: "e", Virtual: true, Statements: 20, Ops: []prog.Op{prog.Work(20)}})
	p.RegisterVirtual("Base::solve", "A::solve")
	p.RegisterVirtual("Base::solve", "B::solve")
	p.MustAddFunc(&prog.Function{Name: "cb", Unit: "e", Statements: 15, AddressTaken: true, Ops: []prog.Op{prog.Work(5)}})
	p.RegisterPointerTarget("hook", "cb", true)

	e, rt, _ := setup(t, p, true, 1)
	var mu sync.Mutex
	counts := map[int32]int{}
	rt.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
		if kind == xray.Entry {
			mu.Lock()
			counts[id]++
			mu.Unlock()
		}
	})
	patchAll(t, rt)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Dispatch: A twice (default), B twice (explicit), cb twice (pointer).
	a := e.cfg.Build.LayoutOf("A::solve")
	b := e.cfg.Build.LayoutOf("B::solve")
	cb := e.cfg.Build.LayoutOf("cb")
	pa, _ := xray.PackID(0, a.FuncID)
	pb, _ := xray.PackID(0, b.FuncID)
	pc, _ := xray.PackID(0, cb.FuncID)
	if counts[pa] != 2 || counts[pb] != 2 || counts[pc] != 2 {
		t.Fatalf("dispatch counts = %v", counts)
	}
}

func TestStaticInstrumentation(t *testing.T) {
	p := testProgram()
	b, err := compiler.Compile(p, compiler.Options{
		StaticIC: ic.New("testapp", "static", []string{"kernel", "step"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := mpi.NewWorld(1, mpi.DefaultCostModel())
	var mu sync.Mutex
	hooks := map[string]int{}
	e, err := New(Config{
		Build: b, Proc: proc, World: w,
		StaticHook: func(tc xray.ThreadCtx, fn string, kind xray.EntryType) {
			mu.Lock()
			hooks[fn]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hooks["kernel"] != 12 || hooks["step"] != 6 { // enter+exit per call
		t.Fatalf("static hooks = %v", hooks)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() int64 {
		e, _, w := setup(t, testProgram(), true, 4)
		patchAll(t, e.cfg.XRay)
		e.cfg.XRay.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
			tc.Clock().Advance(123)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, r := range w.Ranks() {
			sum += r.Clock().Now()
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestStaticInitsRunBeforeMain: a unit's static initializers run before
// main, in emission order, and a function between them that is not one
// does not run with them.
func TestStaticInitsRunBeforeMain(t *testing.T) {
	p := testProgram()
	for _, f := range []*prog.Function{
		{Name: "_GLOBAL__sub_I_x", StaticInit: true, Visibility: prog.Hidden},
		{Name: "helper"},
		{Name: "_GLOBAL__sub_I_y", StaticInit: true, Visibility: prog.Hidden},
	} {
		f.Unit, f.Statements, f.Ops = "app.exe", 10, []prog.Op{prog.Work(50)}
		p.MustAddFunc(f)
	}
	e, rt, _ := setup(t, p, true, 1)
	var order []string
	rt.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
		if kind != xray.Entry {
			return
		}
		name, err := dispatchedName(rt, id)
		if err != nil {
			t.Error(err)
		}
		order = append(order, name)
	})
	patchAll(t, rt)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"_GLOBAL__sub_I_x", "_GLOBAL__sub_I_y", "main"}; len(order) < 3 || !slices.Equal(order[:3], want) {
		t.Fatalf("entry order %v, want %v first", order, want)
	}
}

// dispatchedName names the function a dispatched packed ID enters: the
// entry symbol at the address XRay gives the ID.
func dispatchedName(rt *xray.Runtime, id int32) (string, error) {
	addr, err := rt.FunctionAddress(id)
	if err != nil {
		return "", err
	}
	objID, fn := xray.UnpackID(id)
	lo, _ := rt.Object(objID)
	sym, ok := lo.Image.FuncSymbol(fn)
	if !ok || lo.Base+sym.Value != addr {
		return "", fmt.Errorf("no entry symbol at %#x for ID %d", addr, id)
	}
	return sym.Name, nil
}

func TestRecursionDepthGuard(t *testing.T) {
	p := prog.New("rec", "main")
	p.MustAddUnit("e", prog.Executable)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "e", Statements: 20, Ops: []prog.Op{prog.Call("main", 1)}})
	b, err := compiler.Compile(p, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proc, _ := b.LoadProcess()
	w, _ := mpi.NewWorld(1, mpi.DefaultCostModel())
	e, err := New(Config{Build: b, Proc: proc, World: w})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "depth 512") {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
}
