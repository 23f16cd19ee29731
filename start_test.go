package capi_test

import (
	"slices"
	"sync"
	"testing"

	capi "capi"
	"capi/internal/experiments"
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

// TestStartAllocs holds Start to a cost per object, not per function: the
// runtime names its function IDs from the images' own symbol index. With a
// sorted symbol-table copy and two offset maps per object, and a slice per
// resolved name, one openfoam@0.05 Start made 5,365 allocations for its
// 5,047 function IDs; it makes 118. The ceiling is one per ~12 IDs.
func TestStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceiling = 400
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

// TestConcurrentStartsShareImages: every process a session loads shares
// the build's images and their symbol index, so instances may start, run
// and resolve names concurrently from one session. Run under -race.
func TestConcurrentStartsShareImages(t *testing.T) {
	s, sel := startSession(t, capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 1, PCGIters: 2}, "kernels")
	type result struct {
		status capi.InstanceStatus
		names  []string
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
			results[i] = result{inst.Status(), inst.ActiveFunctionNames()}
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
		if r.status.Patched != first.status.Patched || r.status.InitSeconds != first.status.InitSeconds || !slices.Equal(r.names, first.names) {
			t.Errorf("instance %d: patched %d, T_init %v s, %d names; instance 0: %d, %v s, %d names",
				i+1, r.status.Patched, r.status.InitSeconds, len(r.names), first.status.Patched, first.status.InitSeconds, len(first.names))
		}
	}
}
