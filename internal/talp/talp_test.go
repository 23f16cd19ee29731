package talp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"capi/internal/mpi"
	"capi/internal/vtime"
)

func newWorld(t *testing.T, size int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(size, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRegisterRequiresMPIInit(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if _, err := m.Register(r, "early"); err == nil {
			t.Error("registration before MPI_Init should fail")
		}
		if err := r.Init(); err != nil {
			return err
		}
		if _, err := m.Register(r, "late"); err != nil {
			t.Errorf("registration after MPI_Init failed: %v", err)
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if len(rep.FailedPreInit) != 1 || rep.FailedPreInit[0] != "early" {
		t.Fatalf("failed pre-init = %v", rep.FailedPreInit)
	}
}

func TestRegionAccounting(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		reg, err := m.Register(r, "solver")
		if err != nil {
			return err
		}
		if err := m.Start(r, reg); err != nil {
			return err
		}
		// Rank 0 computes 10ms, rank 1 computes 2ms, then both barrier:
		// rank 1 waits ~8ms in MPI.
		work := int64(2)
		if r.ID() == 0 {
			work = 10
		}
		r.Clock().Advance(work * vtime.Millisecond)
		if err := r.Barrier(); err != nil {
			return err
		}
		if err := m.Stop(r, reg); err != nil {
			return err
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	solver := rep.Region("solver")
	if solver == nil {
		t.Fatalf("solver region missing: %+v", rep.Regions)
	}
	if solver.Visits != 2 {
		t.Fatalf("visits = %d", solver.Visits)
	}
	// Rank 0: useful ≈ 10ms, little MPI. Rank 1: useful ≈ 2ms, MPI ≈ 8ms.
	r0, r1 := solver.PerRank[0], solver.PerRank[1]
	if r0.Useful < 9*vtime.Millisecond || r1.Useful > 4*vtime.Millisecond {
		t.Fatalf("useful: r0=%d r1=%d", r0.Useful, r1.Useful)
	}
	if r1.MPI < 7*vtime.Millisecond {
		t.Fatalf("rank 1 MPI wait = %d, want >= 7ms", r1.MPI)
	}
	// Load balance ≈ avg(10,2)/10 = 0.6.
	if lb := solver.Metrics.LoadBalance; lb < 0.45 || lb > 0.75 {
		t.Fatalf("load balance = %v", lb)
	}
	// Global region exists and covers the solver region.
	global := rep.Region(GlobalRegionName)
	if global == nil {
		t.Fatal("global region missing")
	}
	if global.Elapsed < solver.Elapsed {
		t.Fatal("global region should cover the solver region")
	}
}

func TestNestedAndOverlappingRegions(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		outer, _ := m.Register(r, "outer")
		inner, _ := m.Register(r, "inner")
		if err := m.Start(r, outer); err != nil {
			return err
		}
		r.Clock().Advance(vtime.Millisecond)
		if err := m.Start(r, inner); err != nil { // nested
			return err
		}
		r.Clock().Advance(vtime.Millisecond)
		// Recursive re-entry of outer: depth only.
		if err := m.Start(r, outer); err != nil {
			return err
		}
		r.Clock().Advance(vtime.Millisecond)
		if err := m.Stop(r, outer); err != nil {
			return err
		}
		if err := m.Stop(r, inner); err != nil { // overlap: inner closes after outer's re-entry
			return err
		}
		if err := m.Stop(r, outer); err != nil {
			return err
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	outer := rep.Region("outer")
	inner := rep.Region("inner")
	if outer.Visits != 2 || inner.Visits != 1 {
		t.Fatalf("visits outer=%d inner=%d", outer.Visits, inner.Visits)
	}
	// outer elapsed spans all 3ms; inner spans ~2ms.
	if outer.Elapsed < 3*vtime.Millisecond {
		t.Fatalf("outer elapsed = %d", outer.Elapsed)
	}
	if inner.Elapsed < 2*vtime.Millisecond || inner.Elapsed >= outer.Elapsed {
		t.Fatalf("inner elapsed = %d (outer %d)", inner.Elapsed, outer.Elapsed)
	}
}

func TestStopWithoutStartFails(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		reg, _ := m.Register(r, "x")
		if err := m.Stop(r, reg); err == nil {
			t.Error("Stop without Start should fail")
		}
		if err := m.Stop(r, nil); err == nil {
			t.Error("Stop(nil) should fail")
		}
		if err := m.Start(r, nil); err == nil {
			t.Error("Start(nil) should fail")
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDLBAliases(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		// Listing 2 of the paper.
		handle, err := m.MonitoringRegionRegister(r, "foo")
		if err != nil {
			return err
		}
		if err := m.MonitoringRegionStart(r, handle); err != nil {
			return err
		}
		r.Clock().Advance(vtime.Millisecond)
		if err := m.MonitoringRegionStop(r, handle); err != nil {
			return err
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Report().Region("foo") == nil {
		t.Fatal("foo region missing")
	}
}

func TestPerOpenRegionMPICost(t *testing.T) {
	// Two identical runs, one with regions open during the MPI call: the
	// open-region run must consume more virtual time.
	run := func(openRegions int) int64 {
		w := newWorld(t, 1)
		m := New(w, Options{})
		var final int64
		err := w.Run(func(r *mpi.Rank) error {
			if err := r.Init(); err != nil {
				return err
			}
			var regs []*Region
			for i := 0; i < openRegions; i++ {
				reg, err := m.Register(r, fmt.Sprintf("r%d", i))
				if err != nil {
					return err
				}
				if err := m.Start(r, reg); err != nil {
					return err
				}
				regs = append(regs, reg)
			}
			for i := 0; i < 100; i++ {
				if err := r.Barrier(); err != nil {
					return err
				}
			}
			for _, reg := range regs {
				if err := m.Stop(r, reg); err != nil {
					return err
				}
			}
			if err := r.Finalize(); err != nil {
				return err
			}
			final = r.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return final
	}
	closed := run(0)
	open := run(20)
	// 20 regions x 100 barriers x perOpenRegionMPI plus start/stop costs.
	minDelta := 20 * 100 * perOpenRegionMPI
	if open-closed < minDelta {
		t.Fatalf("open-region overhead %d < %d", open-closed, minDelta)
	}
}

func TestReentryBugEmulation(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{EmulateReentryBug: true})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		failures := 0
		for i := 0; i < 40; i++ {
			reg, err := m.Register(r, fmt.Sprintf("region%03d", i))
			if err != nil {
				return err
			}
			if err := m.Start(r, reg); err != nil {
				failures++
				continue
			}
			if err := m.Stop(r, reg); err != nil {
				return err
			}
		}
		if failures == 0 {
			t.Error("bug emulation produced no failures")
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if len(rep.FailedEntries) == 0 {
		t.Fatal("failed entries missing from report")
	}
	// Default mode: no failures.
	w2 := newWorld(t, 1)
	m2 := New(w2, Options{})
	err = w2.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			reg, _ := m2.Register(r, fmt.Sprintf("region%03d", i))
			if err := m2.Start(r, reg); err != nil {
				return err
			}
			if err := m2.Stop(r, reg); err != nil {
				return err
			}
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Report().FailedEntries) != 0 {
		t.Fatal("default mode must not fail region entries")
	}
}

func TestReportOutputs(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		reg, _ := m.Register(r, "Amul")
		_ = m.Start(r, reg)
		r.Clock().Advance(vtime.Millisecond)
		_ = m.Stop(r, reg)
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, frag := range []string{"Amul", "Parallel Efficiency", GlobalRegionName} {
		if !strings.Contains(out, frag) {
			t.Fatalf("text report missing %q:\n%s", frag, out)
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "\"parallelEfficiency\"") {
		t.Fatalf("json report:\n%s", js.String())
	}
	if rep.Region("nope") != nil {
		t.Fatal("unknown region lookup should be nil")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		a, _ := m.Register(r, "same")
		b, _ := m.Register(r, "same")
		if a != b {
			t.Error("same-name registration should return the same handle")
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRegisteredRegions() != 2 { // global + same
		t.Fatalf("regions = %d", m.NumRegisteredRegions())
	}
}

func TestOpenCountTracksGlobalRegion(t *testing.T) {
	w := newWorld(t, 1)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if m.OpenCount(0) != 0 {
			t.Error("regions open before Init")
		}
		if err := r.Init(); err != nil {
			return err
		}
		if m.OpenCount(0) != 1 { // global region
			t.Errorf("open after Init = %d, want 1", m.OpenCount(0))
		}
		if err := r.Finalize(); err != nil {
			return err
		}
		if m.OpenCount(0) != 0 {
			t.Errorf("open after Finalize = %d, want 0", m.OpenCount(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
