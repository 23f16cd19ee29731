package dyncapi

import (
	"strings"
	"testing"
	"time"

	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/xray"
)

// plainBackend is the minimal MeasurementBackend: no optional capabilities.
// It counts every call the guard forwards, its embedders' included.
type plainBackend struct {
	name          string
	enters, exits int
	panicEnters   bool
	panicExits    bool

	phases, reports, deselects int
	injected                   []string
}

func (p *plainBackend) Name() string { return p.name }
func (p *plainBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if p.panicEnters {
		panic("boom: enter")
	}
	p.enters++
}
func (p *plainBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if p.panicExits {
		panic("boom: exit")
	}
	p.exits++
}
func (p *plainBackend) InitCost(int) int64          { return 11 }
func (p *plainBackend) StartPhase(*mpi.World) error { p.phases++; return nil }
func (p *plainBackend) Report() Envelope            { p.reports++; return nil }
func (p *plainBackend) counts() *plainBackend       { return p }

// dsBackend adds Deselector; siBackend adds SymbolInjector; dsiBackend both.
type dsBackend struct {
	plainBackend
	panicLife bool // panic in InitCost / OnDeselect / InjectSymbol
}

func (d *dsBackend) InitCost(int) int64 {
	if d.panicLife {
		panic("boom: init")
	}
	return 11
}

func (d *dsBackend) OnDeselect(fn *ResolvedFunc) int {
	if d.panicLife {
		panic("boom: deselect")
	}
	d.deselects++
	return 1
}

type siBackend struct {
	plainBackend
}

func (s *siBackend) InjectSymbol(addr uint64, name string) { s.injected = append(s.injected, name) }

type dsiBackend struct {
	dsBackend
}

func (d *dsiBackend) InjectSymbol(addr uint64, name string) {
	if d.panicLife {
		panic("boom: inject")
	}
	d.injected = append(d.injected, name)
}

// TestGuardForwardsInnerCapabilities: the guard reaches the inner
// backend's StartPhase and Report always, its OnDeselect and InjectSymbol
// exactly when the inner backend has them (and the runtime's capability
// walk sees just those), and none of them once the breaker is open.
func TestGuardForwardsInnerCapabilities(t *testing.T) {
	cases := []struct {
		name  string
		inner interface {
			MeasurementBackend
			counts() *plainBackend
		}
		wantDS bool
		wantSI bool
	}{
		{"plain", &plainBackend{name: "p"}, false, false},
		{"deselector", &dsBackend{plainBackend: plainBackend{name: "d"}}, true, false},
		{"injector", &siBackend{plainBackend{name: "s"}}, false, true},
		{"both", &dsiBackend{dsBackend{plainBackend: plainBackend{name: "b"}}}, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGuard(c.inner, GuardOptions{PanicLimit: 1})
			if g.Name() != c.inner.Name() {
				t.Errorf("guard name = %q, want %q", g.Name(), c.inner.Name())
			}
			ds, si := capabilities(g)
			if (ds != nil) != c.wantDS || (si != nil) != c.wantSI {
				t.Errorf("capabilities: Deselector %v, SymbolInjector %v; want %v, %v", ds != nil, si != nil, c.wantDS, c.wantSI)
			}
			reached := func() [4]int {
				p := c.inner.counts()
				return [4]int{p.phases, p.reports, p.deselects, len(p.injected)}
			}
			deliver := func() {
				g.StartPhase(nil) //nolint:errcheck
				g.Report()
				g.OnDeselect(nil)
				g.InjectSymbol(1, "x")
			}
			deliver()
			want := [4]int{1, 1, 0, 0}
			if c.wantDS {
				want[2] = 1
			}
			if c.wantSI {
				want[3] = 1
			}
			if got := reached(); got != want {
				t.Fatalf("phases, reports, deselects, injects reached = %v, want %v", got, want)
			}
			c.inner.counts().panicEnters = true
			g.OnEnter(&fakeCtx{}, nil) // panic 1 -> trip
			if !g.Tripped() {
				t.Fatal("not tripped")
			}
			deliver()
			if got := reached(); got != want {
				t.Fatalf("open breaker reached the backend: %v, want %v", got, want)
			}
		})
	}
}

// TestGuardRecoversAndTrips walks the breaker lifecycle end to end through
// a live runtime: panics are recovered (the dispatch never crashes), enter
// drops are counted, the breaker trips exactly at the limit, OnTrip fires
// once, and post-trip events short-circuit without reaching the backend.
func TestGuardRecoversAndTrips(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	inner := &plainBackend{name: "faulty", panicEnters: true, panicExits: true}
	tripCh := make(chan string, 2)
	g := NewGuard(inner, GuardOptions{PanicLimit: 3, OnTrip: func(name string) { tripCh <- name }})
	if _, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), g.Sink(), Options{}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")

	xr.Dispatch(tc, kernel, xray.Entry) // panic 1, dropped 1
	xr.Dispatch(tc, kernel, xray.Exit)  // panic 2 (exit: not dropped)
	if g.Tripped() {
		t.Fatal("tripped below the limit")
	}
	if got := g.Stats(); got.Panics != 2 || got.DroppedPanicked != 1 {
		t.Fatalf("stats before trip = %+v, want 2 panics, 1 dropped", got)
	}
	xr.Dispatch(tc, kernel, xray.Entry) // panic 3 -> trip
	if !g.Tripped() {
		t.Fatal("not tripped at the limit")
	}
	select {
	case name := <-tripCh:
		if name != "faulty" {
			t.Fatalf("OnTrip(%q), want faulty", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnTrip never fired")
	}
	// Open breaker: the backend sees nothing, enters keep being counted.
	inner.panicEnters, inner.panicExits = false, false
	xr.Dispatch(tc, kernel, xray.Entry)
	xr.Dispatch(tc, kernel, xray.Exit)
	st := g.Stats()
	if inner.enters != 0 || inner.exits != 0 {
		t.Fatalf("backend saw %d/%d events through an open breaker", inner.enters, inner.exits)
	}
	if st.Panics != 3 || st.DroppedPanicked != 3 {
		t.Fatalf("stats after trip = %+v, want 3 panics, 3 dropped", st)
	}
	if !strings.Contains(st.LastPanic, "boom") {
		t.Fatalf("LastPanic = %q, want the panic value", st.LastPanic)
	}
	select {
	case <-tripCh:
		t.Fatal("OnTrip fired twice")
	default:
	}
}

// TestGuardNegativeLimitNeverTrips: PanicLimit < 0 keeps the barrier
// (recover + count) but the breaker never opens.
func TestGuardNegativeLimitNeverTrips(t *testing.T) {
	inner := &plainBackend{name: "p", panicEnters: true}
	g := NewGuard(inner, GuardOptions{PanicLimit: -1, OnTrip: func(string) { t.Error("OnTrip fired") }})
	for i := 0; i < 10; i++ {
		g.Sink().OnEnter(&fakeCtx{}, nil)
	}
	if g.Tripped() {
		t.Fatal("negative limit tripped")
	}
	if st := g.Stats(); st.Panics != 10 || st.DroppedPanicked != 10 {
		t.Fatalf("stats = %+v, want 10 panics, 10 dropped", st)
	}
	// The barrier still delivers once the backend behaves.
	inner.panicEnters = false
	g.Sink().OnEnter(&fakeCtx{}, nil)
	if inner.enters != 1 {
		t.Fatalf("recovered backend saw %d enters, want 1", inner.enters)
	}
}

// TestGuardLifecyclePathsRecover: InitCost, OnDeselect and InjectSymbol
// panics are recovered, degrade to zero-values, and count toward the same
// breaker as event-path panics.
func TestGuardLifecyclePathsRecover(t *testing.T) {
	inner := &dsiBackend{dsBackend{plainBackend: plainBackend{name: "life"}, panicLife: true}}
	g := NewGuard(inner, GuardOptions{PanicLimit: -1})
	sink := g.Sink()
	if cost := sink.InitCost(3); cost != 0 {
		t.Fatalf("panicking InitCost = %d, want 0", cost)
	}
	if n := sink.(Deselector).OnDeselect(nil); n != 0 {
		t.Fatalf("panicking OnDeselect = %d, want 0", n)
	}
	sink.(SymbolInjector).InjectSymbol(1, "x")
	if st := g.Stats(); st.Panics != 3 {
		t.Fatalf("panics = %d, want 3 (init, deselect, inject)", st.Panics)
	}
	// After a trip the lifecycle paths short-circuit instead of recovering.
	g2 := NewGuard(inner, GuardOptions{PanicLimit: 1})
	g2.Sink().(Deselector).OnDeselect(nil) // panic 1 -> trip
	if !g2.Tripped() {
		t.Fatal("not tripped")
	}
	before := g2.Stats().Panics
	g2.Sink().(SymbolInjector).InjectSymbol(1, "x")
	if got := g2.Stats().Panics; got != before {
		t.Fatalf("open breaker still reached the backend: panics %d -> %d", before, got)
	}
}

// TestSwapBackendIdentityDiff: a partial swap that keeps one mux child must
// not close the kept child's state or re-charge its start-up cost; the
// departing child closes its dangling state, and only the arriving child
// pays InitCost and receives the DSO symbol replay.
func TestSwapBackendIdentityDiff(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	kept := &dsBackend{plainBackend: plainBackend{name: "kept"}}
	departing := &dsBackend{plainBackend: plainBackend{name: "departing"}}
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), NewMux(kept, departing), Options{})
	if err != nil {
		t.Fatal(err)
	}
	arriving := &siBackend{plainBackend: plainBackend{name: "arriving"}}
	rep, err := rt.SwapBackend(NewMux(kept, arriving))
	if err != nil {
		t.Fatal(err)
	}
	if kept.deselects != 0 {
		t.Fatalf("kept child closed state on a partial swap: %d deselects", kept.deselects)
	}
	if departing.deselects == 0 {
		t.Fatal("departing child never closed its dangling state")
	}
	if rep.SyntheticExitsByBackend["departing"] != departing.deselects {
		t.Fatalf("synthetic exits by backend = %v, want departing=%d",
			rep.SyntheticExitsByBackend, departing.deselects)
	}
	if rep.VirtualNs != 11 {
		t.Fatalf("VirtualNs = %d, want 11 (only the arriving leaf pays)", rep.VirtualNs)
	}
	if len(arriving.injected) == 0 {
		t.Fatal("arriving SymbolInjector got no DSO symbol replay")
	}
	// Events flow to the new set.
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")
	xr.Dispatch(tc, kernel, xray.Entry)
	xr.Dispatch(tc, kernel, xray.Exit)
	if kept.enters != 1 || arriving.enters != 1 || departing.enters != 0 {
		t.Fatalf("post-swap enters: kept=%d arriving=%d departing=%d, want 1/1/0",
			kept.enters, arriving.enters, departing.enters)
	}
}

// valDS is a value-type Deselector and SymbolInjector whose dynamic type is
// not comparable (it holds a slice). It records into the shared backing
// array: tags[0] once it closed state, tags[1] once it got a symbol.
type valDS struct{ tags []string }

// boxDS has a comparable type, but comparing two that box a valDS panics.
type boxDS struct{ Backend }

func (v valDS) Name() string                          { return "val" }
func (v valDS) OnEnter(xray.ThreadCtx, *ResolvedFunc) {}
func (v valDS) OnExit(xray.ThreadCtx, *ResolvedFunc)  {}
func (v valDS) InitCost(int) int64                    { return 7 }
func (v valDS) OnDeselect(*ResolvedFunc) int          { v.tags[0] = "closed"; return 1 }
func (v valDS) InjectSymbol(addr uint64, name string) { v.tags[1] = "injected" }

// TestSwapBackendUncomparableLeaf: a leaf that is not comparable, by type
// (valDS) or by the value it boxes (boxDS), has no identity to keep, so a
// swap never hashes or compares it: it departs (closing its state) and its
// replacement arrives (paying InitCost and receiving the DSO symbol replay).
func TestSwapBackendUncomparableLeaf(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	departing := valDS{tags: make([]string, 2)}
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), NewMux(departing, boxDS{departing}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	arriving := valDS{tags: make([]string, 2)}
	rep, err := rt.SwapBackend(NewMux(arriving, boxDS{arriving}))
	if err != nil {
		t.Fatal(err)
	}
	if departing.tags[0] != "closed" || arriving.tags[0] != "" {
		t.Fatalf("closed state: departing %q, arriving %q; want only the departing leaf", departing.tags[0], arriving.tags[0])
	}
	if rep.SyntheticExitsByBackend["val"] != rt.ActiveCount() {
		t.Fatalf("synthetic exits by backend = %v, want val=%d", rep.SyntheticExitsByBackend, rt.ActiveCount())
	}
	if rep.VirtualNs != 14 {
		t.Fatalf("VirtualNs = %d, want 14 (both arriving leaves pay)", rep.VirtualNs)
	}
	if arriving.tags[1] != "injected" {
		t.Fatal("arriving SymbolInjector got no DSO symbol replay")
	}
}
