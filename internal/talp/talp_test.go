package talp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"capi/internal/mpi"
	"capi/internal/pop"
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
		m.Enter(r, "early")
		m.Exit(r, "early")
		if err := r.Init(); err != nil {
			return err
		}
		m.Enter(r, "late")
		m.Exit(r, "late")
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if len(rep.FailedPreInit) != 1 || rep.FailedPreInit[0] != "early" {
		t.Fatalf("failed pre-init = %v", rep.FailedPreInit)
	}
	if rep.Region("early") != nil {
		t.Fatal("region entered before MPI_Init was recorded")
	}
	if late := rep.Region("late"); late == nil || late.Visits != 1 {
		t.Fatalf("late region = %+v, want 1 visit", late)
	}
}

func TestRegionAccounting(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		m.Enter(r, "solver")
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
		m.Exit(r, "solver")
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
		m.Enter(r, "outer")
		r.Clock().Advance(vtime.Millisecond)
		m.Enter(r, "inner") // nested
		r.Clock().Advance(vtime.Millisecond)
		// Recursive re-entry of outer: depth only.
		m.Enter(r, "outer")
		r.Clock().Advance(vtime.Millisecond)
		m.Exit(r, "outer")
		m.Exit(r, "inner") // overlap: inner closes after outer's re-entry
		m.Exit(r, "outer")
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
			for i := 0; i < openRegions; i++ {
				m.Enter(r, fmt.Sprintf("r%d", i))
			}
			for i := 0; i < 100; i++ {
				if err := r.Barrier(); err != nil {
					return err
				}
			}
			for i := 0; i < openRegions; i++ {
				m.Exit(r, fmt.Sprintf("r%d", i))
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
		for i := 0; i < 40; i++ {
			m.Enter(r, fmt.Sprintf("region%03d", i))
			m.Exit(r, fmt.Sprintf("region%03d", i))
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if len(rep.FailedEntries) == 0 {
		t.Fatal("bug emulation produced no failed entries")
	}
	for _, name := range rep.FailedEntries {
		if rep.Region(name) != nil {
			t.Fatalf("region %s failed its only entry but was recorded", name)
		}
	}
	// Default mode: no failures.
	w2 := newWorld(t, 1)
	m2 := New(w2, Options{})
	err = w2.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			m2.Enter(r, fmt.Sprintf("region%03d", i))
			m2.Exit(r, fmt.Sprintf("region%03d", i))
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := m2.Report(); len(rep.FailedEntries) != 0 || len(rep.Regions) != 41 {
		t.Fatalf("default mode: %d failed entries, %d regions; want 0 and 41 (global included)", len(rep.FailedEntries), len(rep.Regions))
	}
}

func TestReportOutputs(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		m.Enter(r, "Amul")
		r.Clock().Advance(vtime.Millisecond)
		m.Exit(r, "Amul")
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
		before := r.Clock().Now()
		m.Enter(r, "same")
		m.Exit(r, "same")
		m.Enter(r, "same")
		m.Exit(r, "same")
		if got, want := r.Clock().Now()-before, registerCost+2*(startCost+stopCost); got != want {
			t.Errorf("two entries cost %d, want one registration and two start/stop pairs (%d)", got, want)
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.perRank[0].registered; n != 2 { // global + same
		t.Fatalf("regions = %d", n)
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

// TestEnterRegistersPerRank: Enter registers a region on its first entry
// on each rank and charges that rank, so every rank pays the same however
// the ranks are scheduled; a pre-MPI_Init failure disables the region on
// the failing rank only, for good.
func TestEnterRegistersPerRank(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	clocks := make([]int64, 2)
	err := w.Run(func(r *mpi.Rank) error {
		if r.ID() == 0 {
			m.Enter(r, "early") // before MPI_Init: fails on rank 0
			m.Exit(r, "early")
		}
		if err := r.Init(); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			m.Enter(r, "early")
			m.Enter(r, "solver")
			m.Exit(r, "solver")
			m.Exit(r, "early")
		}
		clocks[r.ID()] = r.Clock().Now()
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 registered both regions, rank 0 only solver: one registration
	// and three start/stop pairs of early apart.
	if want := registerCost + 3*(startCost+stopCost); clocks[1]-clocks[0] != want {
		t.Fatalf("rank clocks %v differ by %d, want %d", clocks, clocks[1]-clocks[0], want)
	}
	rep := m.Report()
	if len(rep.FailedPreInit) != 1 || rep.FailedPreInit[0] != "early" {
		t.Fatalf("failed pre-init = %v", rep.FailedPreInit)
	}
	early := rep.Region("early")
	if early == nil || early.Visits != 3 || early.PerRank[0] != (pop.RankTimes{}) {
		t.Fatalf("early region = %+v, want 3 visits, all on rank 1", early)
	}
	if solver := rep.Region("solver"); solver == nil || solver.Visits != 6 {
		t.Fatalf("solver region = %+v, want 6 visits", solver)
	}
}

// TestReentryBugCountsPerRank: the emulated bug fires only once the
// entering rank itself has registered enough regions.
func TestReentryBugCountsPerRank(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{EmulateReentryBug: true})
	hit := ""
	for i := 0; hit == ""; i++ {
		if name := fmt.Sprintf("region%03d", i); m.bugHits(bugMinRegions, name) {
			hit = name
		}
	}
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			for i := 0; i < bugMinRegions; i++ {
				m.Enter(r, fmt.Sprintf("filler%d", i))
			}
		}
		// Barrier: rank 1 enters after rank 0 registered its fillers.
		if err := r.Barrier(); err != nil {
			return err
		}
		m.Enter(r, hit)
		if open, want := m.OpenCount(r.ID()), map[int]int{0: 1 + bugMinRegions, 1: 2}[r.ID()]; open != want {
			t.Errorf("rank %d: %d regions open after entering %s, want %d", r.ID(), open, hit, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.Report(); len(rep.FailedEntries) != 1 || rep.FailedEntries[0] != hit {
		t.Fatalf("failed entries = %v, want [%s]", rep.FailedEntries, hit)
	}
}

// TestCloseOpenByName: CloseOpen balances a named region's dangling starts
// on every rank, an unknown name closes nothing, and an exit after the
// close changes nothing.
func TestCloseOpenByName(t *testing.T) {
	w := newWorld(t, 2)
	m := New(w, Options{})
	err := w.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		m.Enter(r, "kernel")
		m.Enter(r, "kernel")
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.CloseOpen("nope"); n != 0 {
		t.Fatalf("CloseOpen of an unknown region closed %d", n)
	}
	if n := m.CloseOpen("kernel"); n != 4 {
		t.Fatalf("CloseOpen closed %d starts, want 4 (depth 2 on two ranks)", n)
	}
	for rank := 0; rank < 2; rank++ {
		if got := m.OpenCount(rank); got != 1 {
			t.Errorf("rank %d: %d regions open, want 1 (global)", rank, got)
		}
	}
	// A late exit of the closed region is a stop without a start: ignored,
	// so the next entry opens the region again.
	r0 := w.Ranks()[0]
	m.Exit(r0, "kernel")
	m.Enter(r0, "kernel")
	if got := m.OpenCount(0); got != 2 {
		t.Fatalf("rank 0: %d regions open after exit-then-enter, want 2", got)
	}
}
