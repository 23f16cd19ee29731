package capi_test

import (
	"sync"
	"testing"
	"time"

	capi "capi"
	"capi/internal/experiments"
)

// TestSharedSelectionsUnderRace: an IC is immutable once built, so one
// Selection may be used from several goroutines at once. Two instances start
// concurrently from one Selection (start-up asks its IC about every hidden
// DSO function), then goroutines apply a shared set of selections to both
// instances, explicitly and with a TTL whose revert timer applies one of them
// again from its own goroutine.
func TestSharedSelectionsUnderRace(t *testing.T) {
	s, err := capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 1, PCGIters: 2}), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sels []*capi.Selection
	for _, name := range []string{"mpi", "kernels", "kernels coarse"} {
		src, err := experiments.SpecSource(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := s.Select(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AttachStaticIDs(sel); err != nil {
			t.Fatal(err)
		}
		sels = append(sels, sel)
	}
	insts := make([]*capi.Instance, 2)
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := s.Start(sels[0], capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
			if err != nil {
				t.Error(err)
				return
			}
			insts[i] = inst
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer insts[0].Close()
	defer insts[1].Close()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := insts[g%2]
			for i := 0; i < 30; i++ {
				sel := sels[(g+i)%len(sels)]
				var err error
				if i%3 == 2 {
					_, err = inst.ReconfigureTTL(sel, time.Millisecond)
				} else {
					_, err = inst.Reconfigure(sel)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if inst.Status().ActiveFunctions == 0 || !sel.IC.Contains(sel.IC.Include[0]) || len(sel.IC.IncludeIDs) == 0 {
					t.Error("empty selection applied")
					return
				}
			}
		}()
	}
	wg.Wait()
}
