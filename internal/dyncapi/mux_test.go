package dyncapi

import (
	"strings"
	"testing"

	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// countBackend is a minimal test backend: it counts enters and exits.
type countBackend struct {
	name           string
	enters, exits  int
	deselects      int
	deselectReturn int
}

func (c *countBackend) Name() string                                { return c.name }
func (c *countBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) { c.enters++ }
func (c *countBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc)  { c.exits++ }
func (c *countBackend) InitCost(int) int64                          { return 7 }

func (c *countBackend) OnDeselect(fn *ResolvedFunc) int {
	c.deselects++
	return c.deselectReturn
}

// TestMuxFansOutEveryEvent: each child sees every enter and exit, in order,
// and the mux sums init costs.
func TestMuxFansOutEveryEvent(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	c1 := &countBackend{name: "c1"}
	c2 := &countBackend{name: "c2"}
	mux := NewMux(c1, c2)
	if got := mux.Name(); got != "mux(c1,c2)" {
		t.Fatalf("mux name = %q", got)
	}
	if got := mux.InitCost(3); got != 14 {
		t.Fatalf("mux init cost = %d, want 14 (7+7)", got)
	}
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), mux, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")
	for i := 0; i < 5; i++ {
		xr.Dispatch(tc, kernel, xray.Entry)
		xr.Dispatch(tc, kernel, xray.Exit)
	}
	for _, c := range []*countBackend{c1, c2} {
		if c.enters != 5 || c.exits != 5 {
			t.Fatalf("%s saw %d/%d events, want 5/5", c.name, c.enters, c.exits)
		}
	}
	if rt.Backend() != Backend(mux) {
		t.Fatal("runtime backend is not the mux")
	}
}

// TestReconfigureDeliversSyntheticExitsPerMuxChild: a deselection while a
// rank is inside the function must close the dangling state on *every*
// Deselector child, and the report must break the count down per backend.
func TestReconfigureDeliversSyntheticExitsPerMuxChild(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	w, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mon := talp.New(w, talp.Options{})
	m, err := scorep.New(scorep.Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.New(trace.Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTALPBackend(mon)
	sb := NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
	eb := NewExtraeBackend(buf) // no Deselector: must not appear in the map
	mux := NewMux(tb, sb, eb)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel", "dso_fn"}), mux, Options{})
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
		// Deselect kernel while the rank is inside it.
		rep, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn"}))
		if err != nil {
			return err
		}
		if rep.SyntheticExits != 2 {
			t.Errorf("synthetic exits = %d, want 2 (talp + scorep)", rep.SyntheticExits)
		}
		if rep.SyntheticExitsByBackend["talp"] != 1 || rep.SyntheticExitsByBackend["scorep"] != 1 {
			t.Errorf("per-backend exits = %v, want talp:1 scorep:1", rep.SyntheticExitsByBackend)
		}
		if _, ok := rep.SyntheticExitsByBackend["extrae"]; ok {
			t.Errorf("extrae (no Deselector) appears in %v", rep.SyntheticExitsByBackend)
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both substrates closed their state.
	if got := m.OpenRegions(0); got != 0 {
		t.Fatalf("scorep open regions = %d, want 0", got)
	}
	if kr := mon.Report().Region("kernel"); kr == nil || kr.Visits != 1 {
		t.Fatalf("talp kernel region not balanced: %+v", kr)
	}
	// The cumulative per-backend counters agree.
	snap := rt.Snapshot()
	if snap.SyntheticExits != 2 ||
		snap.SyntheticExitsByBackend["talp"] != 1 || snap.SyntheticExitsByBackend["scorep"] != 1 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
}

// TestSwapBackendClosesOldStateAndRedirectsEvents: swapping the backend set
// mid-run must (a) close the detached backends' open state with synthetic
// exits, counted per backend, (b) deliver subsequent events to the new set
// only, and (c) replay the DSO symbol injection into the new backends.
func TestSwapBackendClosesOldStateAndRedirectsEvents(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	w, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mon := talp.New(w, talp.Options{})
	tb := NewTALPBackend(mon)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel", "dso_fn"}), tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kernel := packedOf(t, b, xr, proc, "kernel")
	dso := packedOf(t, b, xr, proc, "dso_fn")

	err = w.Run(func(r *mpi.Rank) error {
		tc := &fakeCtx{rank: r}
		if err := r.Init(); err != nil {
			return err
		}
		xr.Dispatch(tc, kernel, xray.Entry)
		r.Clock().Advance(vtime.Millisecond)

		// Swap TALP out for Score-P while the rank is inside kernel.
		m, err := scorep.New(scorep.Options{Ranks: 1})
		if err != nil {
			return err
		}
		sb := NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
		rep, err := rt.SwapBackend(sb)
		if err != nil {
			return err
		}
		if rep.From != "talp" || rep.To != "scorep" {
			t.Errorf("swap report names = %q -> %q", rep.From, rep.To)
		}
		if rep.SyntheticExits != 1 || rep.SyntheticExitsByBackend["talp"] != 1 {
			t.Errorf("swap synthetic exits = %d (%v), want talp:1", rep.SyntheticExits, rep.SyntheticExitsByBackend)
		}
		if rep.VirtualNs <= 0 {
			t.Errorf("swap virtual cost = %d, want > 0 (scorep init)", rep.VirtualNs)
		}

		// Events now land on Score-P only, and the DSO symbol resolves there
		// (injection replayed on swap).
		xr.Dispatch(tc, dso, xray.Entry)
		if got := m.OpenRegions(0); got != 1 {
			t.Errorf("scorep open regions after dso enter = %d, want 1", got)
		}
		xr.Dispatch(tc, dso, xray.Exit)
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}

	// TALP's kernel region was balanced by the swap, not left open.
	if kr := mon.Report().Region("kernel"); kr == nil || kr.Visits != 1 {
		t.Fatalf("talp kernel region not balanced by swap: %+v", kr)
	}
	// The swapped-in Score-P backend resolved the injected DSO symbol by name.
	if sb, ok := rt.Backend().(*ScorePBackend); !ok {
		t.Fatalf("runtime backend = %T after swap", rt.Backend())
	} else if reg := sb.M.Load().Profile().Region("dso_fn"); reg == nil || reg.Visits != 1 {
		t.Fatalf("dso_fn not attributed by name on the swapped-in backend: %+v", reg)
	}
	if !strings.Contains(rt.Backend().Name(), "scorep") {
		t.Fatalf("backend name = %q", rt.Backend().Name())
	}
}
