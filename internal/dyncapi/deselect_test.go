package dyncapi

import (
	"sync"
	"testing"

	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// TestReconfigureClosesDanglingScorePRegions is the regression for the old
// dangling-enter leak: a rank inside a deselected function never fires the
// exit, and Score-P used to keep the region open on the simulated call
// stack forever. The Deselector hook must close it synthetically.
func TestReconfigureClosesDanglingScorePRegions(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	m, err := scorep.New(scorep.Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	back := NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel", "dso_fn"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")
	dso := packedOf(t, b, xr, proc, "dso_fn")

	// The rank is inside kernel → dso_fn when kernel is deselected.
	xr.Dispatch(tc, kernel, xray.Entry)
	xr.Dispatch(tc, dso, xray.Entry)
	tc.Clock().Advance(vtime.Millisecond)
	if got := m.OpenRegions(0); got != 2 {
		t.Fatalf("open regions before reconfigure = %d, want 2", got)
	}

	rep, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyntheticExits != 1 {
		t.Fatalf("synthetic exits = %d, want 1 (kernel)", rep.SyntheticExits)
	}
	if rt.Snapshot().SyntheticExits != 1 {
		t.Fatalf("cumulative synthetic exits = %d", rt.Snapshot().SyntheticExits)
	}
	// kernel's frame is gone; the still-selected dso_fn frame survives and
	// its real exit stays balanced.
	if got := m.OpenRegions(0); got != 1 {
		t.Fatalf("open regions after reconfigure = %d, want 1 (dso_fn)", got)
	}
	xr.Dispatch(tc, dso, xray.Exit)
	if got := m.OpenRegions(0); got != 0 {
		t.Fatalf("open regions after dso_fn exit = %d, want 0", got)
	}
	prof := m.Profile()
	if r := prof.Region("kernel"); r == nil || r.Visits != 1 {
		t.Fatalf("kernel region not closed into the profile: %+v", r)
	}

	// A second reconfigure with nothing dangling closes nothing.
	rep2, err := rt.Reconfigure(ic.New("app", "s", []string{"kernel"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SyntheticExits != 0 {
		t.Fatalf("spurious synthetic exits: %d", rep2.SyntheticExits)
	}
}

// TestReconfigureBalancesDanglingTALPStarts: the TALP side of the same
// leak — the monitor must see the start balanced and no region left open.
func TestReconfigureBalancesDanglingTALPStarts(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	w, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mon := talp.New(w, talp.Options{})
	back := NewTALPBackend(mon)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kernel := packedOf(t, b, xr, proc, "kernel")
	err = w.Run(func(r *mpi.Rank) error {
		tc := &fakeCtx{rank: r}
		if err := r.Init(); err != nil {
			return err
		}
		xr.Dispatch(tc, kernel, xray.Entry)
		r.Clock().Advance(vtime.Millisecond)
		// An MPI call inside the region: TALP's PMPI hook observes it, so
		// the synthetic stop below closes the region at (at least) this
		// point of the rank's clock.
		if err := r.Barrier(); err != nil {
			return err
		}
		// Deselect kernel while the rank is inside it — as the adapt
		// controller does from within a handler.
		rep, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn"}))
		if err != nil {
			return err
		}
		if rep.SyntheticExits != 1 {
			t.Errorf("synthetic exits = %d, want 1", rep.SyntheticExits)
		}
		// Open count: only the implicit global region remains.
		if got := mon.OpenCount(r.ID()); got != 1 {
			t.Errorf("open regions after reconfigure = %d, want 1 (global)", got)
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	kr := rep.Region("kernel")
	if kr == nil || kr.Visits != 1 {
		t.Fatalf("kernel region not balanced into the report: %+v", kr)
	}
	if kr.Elapsed < vtime.Millisecond {
		t.Fatalf("kernel elapsed = %s, want ≥ 1ms (closed at last activity)", vtime.FormatSeconds(kr.Elapsed))
	}
}

// TestDroppedEventCounterSplit: in-flight drops of freshly deselected
// functions must be distinguishable from sled hits for unpatched-but-known
// functions, so trace completeness can be asserted.
func TestDroppedEventCounterSplit(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")
	dso := packedOf(t, b, xr, proc, "dso_fn")

	// dso_fn is known but was never selected: a hit is a spurious sled.
	xr.Dispatch(tc, dso, xray.Entry)
	if rt.Snapshot().DroppedUnpatched != 1 || rt.Snapshot().DroppedInFlight != 0 {
		t.Fatalf("unpatched/inflight = %d/%d, want 1/0", rt.Snapshot().DroppedUnpatched, rt.Snapshot().DroppedInFlight)
	}

	if _, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn"})); err != nil {
		t.Fatal(err)
	}
	// kernel was removed by the latest re-selection: a straggler event is
	// an expected in-flight drop.
	xr.Dispatch(tc, kernel, xray.Entry)
	if rt.Snapshot().DroppedInFlight != 1 {
		t.Fatalf("inflight = %d, want 1", rt.Snapshot().DroppedInFlight)
	}
	// A later re-selection supersedes the window: kernel straggler events
	// are no longer "in flight".
	if _, err := rt.Reconfigure(ic.New("app", "s", []string{"main"})); err != nil {
		t.Fatal(err)
	}
	xr.Dispatch(tc, kernel, xray.Entry)
	if rt.Snapshot().DroppedUnpatched != 2 {
		t.Fatalf("unpatched = %d, want 2", rt.Snapshot().DroppedUnpatched)
	}
}

// TestConcurrentDispatchReconfigureExtrae is the go test -race regression
// for the trace backend: paired enter/exit events keep firing on four
// rank-goroutines (each owning its shard, the single-writer contract) while
// the selection flips concurrently. Afterwards every dispatched event must
// be accounted for: recorded in the trace, rejected by the buffer's drop
// policy, or dropped by the runtime inside the documented windows.
func TestConcurrentDispatchReconfigureExtrae(t *testing.T) {
	const ranks, itersPerRank = 4, 2000
	b := buildProg(t)
	proc, xr := setup(t, b)
	w, err := mpi.NewWorld(ranks, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.New(trace.Options{Ranks: ranks, BufEvents: 64, MaxEvents: 1024})
	if err != nil {
		t.Fatal(err)
	}
	back := NewExtraeBackend(buf)
	cfgA := ic.New("app", "s", []string{"kernel", "dso_fn"})
	cfgB := ic.New("app", "s", []string{"main"})
	rt, err := New(proc, xr, cfgA, back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{
		packedOf(t, b, xr, proc, "main"),
		packedOf(t, b, xr, proc, "kernel"),
		packedOf(t, b, xr, proc, "dso_fn"),
	}

	var wg sync.WaitGroup
	for g := 0; g < ranks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tc := &fakeCtx{rank: w.Rank(g)}
			for i := 0; i < itersPerRank; i++ {
				id := ids[(g+i)%len(ids)]
				xr.Dispatch(tc, id, xray.Entry)
				xr.Dispatch(tc, id, xray.Exit)
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		cfg := cfgA
		if i%2 == 0 {
			cfg = cfgB
		}
		if _, err := rt.Reconfigure(cfg); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()

	rep := buf.Report()
	dispatched := int64(ranks * itersPerRank * 2)
	snap := rt.Snapshot()
	droppedEvents := snap.DroppedInFlight + snap.DroppedUnpatched
	accounted := rep.Recorded + rep.Dropped + droppedEvents
	if accounted != dispatched {
		t.Fatalf("events unaccounted for: recorded %d + buffer-dropped %d + runtime-dropped %d = %d, dispatched %d",
			rep.Recorded, rep.Dropped, droppedEvents, accounted, dispatched)
	}
	if rep.Recorded == 0 {
		t.Fatal("no events traced during concurrent reconfiguration")
	}
	// No duplication either: retained + wrapped + dropped per shard must
	// reconcile with that shard's recorded count.
	for _, rs := range rep.Ranks {
		if rs.Recorded != rs.Retained+rs.Wrapped {
			t.Fatalf("rank %d accounting: recorded %d != retained %d + wrapped %d",
				rs.Rank, rs.Recorded, rs.Retained, rs.Wrapped)
		}
	}
}
