package capi_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	capi "capi"
	"capi/internal/experiments"
	"capi/internal/xray"
)

// startSession builds an openfoam session at the given scale and selects
// one of the paper's named specifications in it.
func startSession(tb testing.TB, opts capi.OpenFOAMOptions, spec string) (*capi.Session, *capi.Selection) {
	tb.Helper()
	s, err := capi.NewSession(capi.OpenFOAM(opts), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := experiments.SpecSource(spec)
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := s.Select(src)
	if err != nil {
		tb.Fatal(err)
	}
	return s, sel
}

// BenchmarkStart times what every instance pays before its first phase:
// loading the process, registering its objects with XRay, resolving every
// function ID to a name, patching the selection and attaching the backend.
// openfoam@0.1, the "mpi coarse" selection, 4 ranks; run with -benchmem.
func BenchmarkStart(b *testing.B) {
	s, sel := startSession(b, capi.OpenFOAMOptions{Scale: 0.1}, "mpi coarse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := s.Start(sel, capi.RunOptions{Ranks: 4})
		if err != nil {
			b.Fatal(err)
		}
		inst.Close()
	}
}

// BenchmarkReconfigureAlternating times one live re-selection that
// alternates between the "mpi coarse" and "kernels" selections: every
// iteration resolves a selection's names and patches the delta.
// openfoam@0.1, 4 ranks; run with -benchmem.
func BenchmarkReconfigureAlternating(b *testing.B) {
	s, mpiSel := startSession(b, capi.OpenFOAMOptions{Scale: 0.1}, "mpi coarse")
	src, err := experiments.SpecSource("kernels")
	if err != nil {
		b.Fatal(err)
	}
	kernelSel, err := s.Select(src)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := s.Start(mpiSel, capi.RunOptions{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	sels := []*capi.Selection{kernelSel, mpiSel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Reconfigure(sels[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStartAllocs holds Start to a cost per object, not per function: the
// runtime names its function IDs from the images' own symbol index and
// looks names up in the build's packed-ID table. With a sorted symbol-table
// copy and two offset maps per object, and a slice per resolved name, one
// openfoam@0.05 Start made 5,365 allocations for its 5,047 function IDs;
// with a name map of its own, 118; with name- and pointer-keyed object maps
// in the process and the XRay runtime, 101; it makes 88. The ceiling is 15 %
// above that.
func TestStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceiling = 101
	s, sel := startSession(t, capi.OpenFOAMOptions{Scale: 0.05}, "mpi coarse")
	allocs := testing.AllocsPerRun(5, func() {
		inst, err := s.Start(sel, capi.RunOptions{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		inst.Close()
	})
	if allocs > ceiling {
		t.Errorf("one openfoam@0.05 Start made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestInstanceFootprint bounds the heap one openfoam@0.1 instance keeps
// live: what is freed when it is closed and released. It retained 1.61 MB
// with per-Start symbol-table copies and 1.37 MB with a name map of its
// own, and 0.53 MB since; the ceiling is 10 % above that.
func TestInstanceFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceilingMB = 0.58
	s, sel := startSession(t, capi.OpenFOAMOptions{Scale: 0.1}, "mpi coarse")
	start := func() *capi.Instance {
		inst, err := s.Start(sel, capi.RunOptions{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	// A first instance builds whatever the session caches for every later one.
	start().Close()
	inst := start()
	var held, released runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	inst.Close()
	inst = nil
	runtime.GC()
	runtime.ReadMemStats(&released)
	runtime.KeepAlive(s)
	runtime.KeepAlive(sel)
	mb := (float64(held.HeapAlloc) - float64(released.HeapAlloc)) / (1 << 20)
	t.Logf("one openfoam@0.1 instance retains %.2f MB (ceiling %.2f)", mb, ceilingMB)
	if mb > ceilingMB {
		t.Errorf("one openfoam@0.1 instance retains %.2f MB, ceiling %.2f", mb, ceilingMB)
	}
}

// TestPackedIDTableMatchesRuntime: for every sled-carrying openfoam@0.1
// function, the build's packed-ID table holds the ID the XRay runtime of a
// loaded process assigns it, and an instance resolves by name every such
// function whose symbol it can see (the executable's, a DSO's exported
// ones) and no hidden one.
func TestPackedIDTableMatchesRuntime(t *testing.T) {
	s, sel := startSession(t, capi.OpenFOAMOptions{Scale: 0.1}, "mpi coarse")
	b := s.Build()
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	visible, hidden := 0, 0
	for i, f := range b.Prog.Funcs() {
		lay := &b.Layout[i]
		id, ok := b.PackedIDAt(i)
		if !lay.HasSleds {
			if ok {
				t.Fatalf("%s has no sleds but packed ID %#x", f.Name, id)
			}
			continue
		}
		lo := proc.Object(f.Unit)
		objID, registered := xr.ObjectID(lo)
		want, err := xray.PackID(objID, lay.FuncID)
		if !registered || err != nil || !ok || id != want {
			t.Fatalf("%s: table %#x (%v), runtime %#x (registered %v, %v)", f.Name, id, ok, want, registered, err)
		}
		sym, _ := lo.Image.FuncSymbol(lay.FuncID)
		got, resolved := inst.ResolveFunctionName(f.Name)
		if lo.Image.Exe || !sym.Hidden {
			visible++
			if !resolved || got != id {
				t.Fatalf("ResolveFunctionName(%s) = %#x, %v; want %#x", f.Name, got, resolved, id)
			}
		} else {
			hidden++
			if resolved {
				t.Fatalf("ResolveFunctionName(%s) = %#x: a hidden DSO function has no name to resolve", f.Name, got)
			}
		}
	}
	if visible == 0 || hidden == 0 {
		t.Fatalf("%d visible and %d hidden sled-carrying functions; the fixture needs both", visible, hidden)
	}
}

// TestConcurrentStartsShareImages: every process a session loads shares
// the build's images, their symbol index and its packed-ID table, so
// instances may start, run and resolve names concurrently from one
// session. Run under -race.
func TestConcurrentStartsShareImages(t *testing.T) {
	s, sel := startSession(t, capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 1, PCGIters: 2}, "kernels")
	type result struct {
		status capi.InstanceStatus
		names  []string
		ids    []int32
	}
	results := make([]result, 3)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"talp", "scorep"}, Ranks: 2})
			if err != nil {
				t.Error(err)
				return
			}
			defer inst.Close()
			if _, err := inst.Run(); err != nil {
				t.Error(err)
				return
			}
			names := inst.ActiveFunctionNames()
			ids := make([]int32, len(names))
			for k, name := range names {
				var ok bool
				if ids[k], ok = inst.ResolveFunctionName(name); !ok {
					t.Errorf("ResolveFunctionName(%s) found nothing", name)
				}
			}
			if unknown := inst.UnknownFunctionNames(append(slices.Clip(names), "no_such_function")); !slices.Equal(unknown, []string{"no_such_function"}) {
				t.Errorf("UnknownFunctionNames = %v, want only no_such_function", unknown)
			}
			results[i] = result{inst.Status(), names, ids}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	first := results[0]
	if first.status.Patched == 0 || len(first.names) != first.status.ActiveFunctions {
		t.Fatalf("first instance patched %d functions and names %d of its %d active ones", first.status.Patched, len(first.names), first.status.ActiveFunctions)
	}
	for i, r := range results[1:] {
		if r.status.Patched != first.status.Patched || r.status.InitSeconds != first.status.InitSeconds || !slices.Equal(r.names, first.names) || !slices.Equal(r.ids, first.ids) {
			t.Errorf("instance %d: patched %d, T_init %v s, %d names; instance 0: %d, %v s, %d names",
				i+1, r.status.Patched, r.status.InitSeconds, len(r.names), first.status.Patched, first.status.InitSeconds, len(first.names))
		}
	}
}
