package dyncapi

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"capi/internal/compiler"
	"capi/internal/ic"
	"capi/internal/prog"
	"capi/internal/xray"
)

// sixFuncs are the instrumentable functions of buildSix, three per object.
var sixFuncs = []string{"main", "kernel", "solve", "dso_a", "dso_b", "dso_c"}

// buildSix: exe{main, kernel, solve} + lib.so{dso_a, dso_b, dso_c}.
func buildSix(t testing.TB) *compiler.Build {
	t.Helper()
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("lib.so", prog.SharedObject)
	var calls []prog.Op
	for _, name := range sixFuncs[1:] {
		calls = append(calls, prog.Call(name, 1))
	}
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 30, Ops: calls})
	for i, name := range sixFuncs[1:] {
		unit := "app.exe"
		if i >= 2 {
			unit = "lib.so"
		}
		p.MustAddFunc(&prog.Function{Name: name, Unit: unit, Statements: 40})
	}
	b, err := compiler.Compile(p, compiler.Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// atomicCounter counts delivered events; safe on every rank at once.
type atomicCounter struct{ events atomic.Int64 }

func (c *atomicCounter) Name() string                          { return "count" }
func (c *atomicCounter) OnEnter(xray.ThreadCtx, *ResolvedFunc) { c.events.Add(1) }
func (c *atomicCounter) OnExit(xray.ThreadCtx, *ResolvedFunc)  { c.events.Add(1) }
func (c *atomicCounter) InitCost(int) int64                    { return 0 }

// subset names the functions of sixFuncs whose bit is set.
func subset(mask int) []string {
	var names []string
	for i, name := range sixFuncs {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return names
}

// TestSlotStateModel checks the slots' state words against the model they
// stand for, over every sequence of up to four re-selections drawn from a
// menu that selects, deselects, reselects and deselects again each of the
// six functions: after each Reconfigure a function is active iff the IC names
// it, deselected iff that Reconfigure removed it, unpatched otherwise — and a
// straggler event lands in the counter of exactly that class (delivered,
// DroppedInFlight, DroppedUnpatched), which is where the handler that read
// the active and deselected maps put it.
func TestSlotStateModel(t *testing.T) {
	b := buildSix(t)
	const initial = 0b001011
	menu := []int{0, 0b111111, 0b000111, 0b111000, 0b010101, 0b101010, 0b000001, 0b100001}

	var seq []int
	var walk func()
	walk = func() {
		if len(seq) > 0 {
			checkSequence(t, b, initial, seq)
		}
		if len(seq) == 4 || t.Failed() {
			return
		}
		for _, mask := range menu {
			seq = append(seq, mask)
			walk()
			seq = seq[:len(seq)-1]
		}
	}
	walk()
}

func checkSequence(t *testing.T, b *compiler.Build, initial int, seq []int) {
	t.Helper()
	proc, xr := setup(t, b)
	back := &atomicCounter{}
	rt, err := New(proc, xr, ic.New("app", "s", subset(initial)), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, len(sixFuncs))
	for i, name := range sixFuncs {
		ids[i] = packedOf(t, b, xr, proc, name)
	}
	tc := &fakeCtx{}
	prev := initial
	for step, mask := range seq {
		if _, err := rt.Reconfigure(ic.New("app", "s", subset(mask))); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			want := stateUnpatched
			switch bit := 1 << i; {
			case mask&bit != 0:
				want = stateActive
			case prev&bit != 0:
				want = stateDeselected
			}
			if got := rt.slot(id).state.Load(); got != want {
				t.Fatalf("%06b after %06b: %s in state %d, want %d", seq[:step+1], initial, sixFuncs[i], got, want)
			}
			if rt.Active(id) != (want == stateActive) {
				t.Fatalf("%06b: Active(%s) = %v", seq[:step+1], sixFuncs[i], rt.Active(id))
			}
			before := [3]int64{rt.droppedUnpatched.Load(), back.events.Load(), rt.droppedInFlight.Load()}
			xr.Dispatch(tc, id, xray.Entry)
			after := [3]int64{rt.droppedUnpatched.Load(), back.events.Load(), rt.droppedInFlight.Load()}
			moved := before
			moved[want]++ // the state values index the three classes in this order
			if after != moved {
				t.Fatalf("%06b: straggler for %s (state %d) moved unpatched/delivered/in-flight %v -> %v", seq[:step+1], sixFuncs[i], want, before, after)
			}
		}
		var wantIDs []int32
		for i, id := range ids {
			if mask&(1<<i) != 0 {
				wantIDs = append(wantIDs, id)
			}
		}
		slices.Sort(wantIDs)
		if got := packedIDs(rt.ActiveFuncs()); !slices.Equal(got, wantIDs) || rt.ActiveCount() != len(wantIDs) {
			t.Fatalf("%06b: ActiveIDs = %v (count %d), want %v", seq[:step+1], got, rt.ActiveCount(), wantIDs)
		}
		prev = mask
	}
}

// TestNameIndexDuplicateSymbol: a name is looked up through the build's
// packed-ID table and counts only when the slot of that ID resolved to it.
// A DSO symbol renamed after compile to a name the executable also defines
// is not found by its new name (that name selects the executable's function
// only) nor by its old one, and its function stays reachable by ID; a
// by-name sampling override resolves the same way. Index numbers the
// functions of both objects in the same packed-ID order.
func TestNameIndexDuplicateSymbol(t *testing.T) {
	b := buildProg(t)
	for i, s := range b.Image("lib.so").Symbols {
		if s.Name == "dso_fn" {
			b.Image("lib.so").Symbols[i].Name = "kernel"
		}
	}
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, nil, &CygBackend{}, Options{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	kernel, renamed := packedOf(t, b, xr, proc, "kernel"), packedOf(t, b, xr, proc, "dso_fn")
	if rf := rt.ByName("kernel"); rf == nil || rf != rt.Resolved(kernel) || rf.Name != "kernel" {
		t.Fatalf("ByName(kernel) = %+v, want the executable's slot %#x", rf, kernel)
	}
	if rf := rt.Resolved(renamed); rf == nil || rf.Name != "kernel" || !rt.Active(renamed) {
		t.Fatalf("slot %#x = %+v, want the renamed DSO function, patched by PatchAll", renamed, rf)
	}
	for _, name := range []string{"dso_fn", "hidden_fn", "nope", ""} {
		if rf := rt.ByName(name); rf != nil {
			t.Fatalf("ByName(%q) = %+v, want nil", name, rf)
		}
	}
	if !slices.IsSortedFunc(rt.Funcs(), func(a, b *ResolvedFunc) int { return int(a.PackedID) - int(b.PackedID) }) {
		t.Fatal("Funcs() is not in packed-ID order")
	}
	if funcs := rt.Funcs(); len(funcs) != rt.NumFuncs() {
		t.Fatalf("NumFuncs() = %d, Funcs() holds %d", rt.NumFuncs(), len(funcs))
	} else {
		for i, rf := range funcs {
			if got := rt.Index(rf); got != i {
				t.Fatalf("Index(%#x) = %d, want its packed-ID position %d", rf.PackedID, got, i)
			}
		}
	}

	if err := rt.SetSampling(SamplingConfig{Funcs: map[string]SamplePolicy{"kernel": {Stride: 4}}}); err != nil {
		t.Fatal(err)
	}
	if n := rt.SamplingSnapshot().FuncPolicies; n != 1 {
		t.Fatalf("a by-name override installed %d policies, want 1", n)
	}
	if k, r := rt.FuncStride(kernel), rt.FuncStride(renamed); k != 4 || r != 1 {
		t.Fatalf("strides of kernel and the renamed function = %d, %d; want 4, 1", k, r)
	}
	err = rt.SetSampling(SamplingConfig{Funcs: map[string]SamplePolicy{"kernel": {Stride: 2}, "dso_fn": {}, "nope": {}}})
	if err == nil || err.Error() != "dyncapi: unknown function name(s) in sampling config: dso_fn, nope" {
		t.Fatalf("unknown names: %v", err)
	}
	if got := rt.FuncStride(kernel); got != 4 {
		t.Fatalf("a rejected config changed a stride to %d", got)
	}
	if err := rt.SetSampling(SamplingConfig{IDs: map[int32]SamplePolicy{renamed: {Stride: 3}}}); err != nil {
		t.Fatal(err)
	}
	if got := rt.FuncStride(renamed); got != 3 {
		t.Fatalf("stride of the renamed function set by ID = %d, want 3", got)
	}
}

// FuzzDispatchID drives arbitrary packed IDs and event kinds through
// xray.Dispatch — they are array indices now — while a second goroutine
// alternates two selections. Nothing may panic, and every dispatched event
// is accounted for: delivered, dropped in flight, dropped unpatched, or
// ignored because no registered object has that function (which the test
// decides from the images, not from the runtime's tables).
func FuzzDispatchID(f *testing.F) {
	b := buildSix(f)
	pastLast := int32(1<<24 | b.Image("lib.so").NumFuncIDs) // lib.so is object 1
	for _, id := range []int32{-1, xray.MaxFuncID, pastLast, 7 << 24, math.MinInt32, 0, 1 << 24} {
		f.Add(id, uint64(0x5555555555555555), false)
		f.Add(id, uint64(0xffff0000ff00f0f0), true)
	}
	f.Fuzz(func(t *testing.T, id int32, kinds uint64, async bool) {
		proc, err := b.LoadProcess()
		if err != nil {
			t.Fatal(err)
		}
		xr, err := xray.NewRuntime(proc)
		if err != nil {
			t.Fatal(err)
		}
		back := &atomicCounter{}
		rt, err := New(proc, xr, ic.New("app", "s", subset(0b010101)), back, Options{Async: async, Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		known := func(id int32) bool {
			objID, fn := xray.UnpackID(id)
			lo, ok := xr.Object(objID)
			return ok && fn < lo.Image.NumFuncIDs
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mask := 0b101010; ; mask ^= 0b111111 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rt.Reconfigure(ic.New("app", "s", subset(mask))); err != nil {
					t.Error(err)
					return
				}
			}
		}()

		// The fuzzed ID, its neighbours, and its function part folded onto
		// each of the two registered objects.
		_, fn := xray.UnpackID(id)
		probes := []int32{id, id + 1, id - 1, id ^ 1<<24, int32(fn), int32(1<<24 | fn), int32(fn % 4), int32(1<<24 | fn%4)}
		tc := &fakeCtx{}
		var dispatched, ignored int64
		for i := range 64 {
			probe := probes[i%len(probes)]
			// Bit i picks enter or exit; every eighth kind is one no sled emits.
			kind := xray.EntryType(kinds >> i & 1)
			if i%8 == 7 {
				kind = xray.EntryType(kinds >> (i - 7))
			}
			xr.Dispatch(tc, probe, kind)
			dispatched++
			if !known(probe) {
				ignored++
			}
		}
		close(stop)
		wg.Wait()
		rt.DrainPipeline()
		if rt.DroppedAsync() != 0 {
			t.Fatalf("%d pairs dropped at a ring of %d events", rt.DroppedAsync(), DefaultAsyncBuf)
		}
		delivered, inFlight, unpatched := back.events.Load(), rt.droppedInFlight.Load(), rt.droppedUnpatched.Load()
		if dispatched != delivered+inFlight+unpatched+ignored {
			t.Fatalf("id %#x: dispatched %d != delivered %d + in flight %d + unpatched %d + unknown %d",
				uint32(id), dispatched, delivered, inFlight, unpatched, ignored)
		}
	})
}
