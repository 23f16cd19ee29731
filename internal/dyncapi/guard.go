package dyncapi

// A tripped backend must never take the host down with it: the Diagnose
// library's reliability promise is that instrument errors never affect the
// instrumented program. Guard is the panic barrier that keeps it — every
// delivery into a measurement backend (enter/exit events, synthetic exits,
// symbol injection, init-cost probes) runs behind a recover, and a
// per-backend circuit breaker detaches a backend that keeps panicking.
//
// The non-failing path pays one atomic load (the breaker state) and one
// deferred-recover frame per event; Go open-codes both, so the guarded
// chain stays within the dispatch bench gates. The recover machinery only
// does work when a panic actually unwinds.

import (
	"fmt"
	"sync/atomic"

	"capi/internal/xray"
)

// DefaultPanicLimit is the number of recovered panics after which a
// guarded backend's circuit breaker trips (GuardOptions.PanicLimit == 0).
const DefaultPanicLimit = 3

// GuardOptions configures a Guard.
type GuardOptions struct {
	// PanicLimit is the breaker threshold: after this many recovered
	// panics anywhere in the backend's delivery paths the breaker trips
	// and OnTrip fires. 0 uses DefaultPanicLimit; negative keeps the
	// barrier (panics are still recovered and counted) but never trips.
	PanicLimit int
	// OnTrip is called exactly once, on its own goroutine, when the
	// breaker trips. It receives the guarded backend's name. Typically it
	// detaches the backend from the instance; the tripped guard itself stays
	// in the live chain, delivering nothing and counting every enter as
	// DroppedPanicked, so drop accounting stays exact.
	OnTrip func(backend string)
}

// Guard wraps one measurement backend in a panic barrier with a circuit
// breaker. Insert it into a chain via Sink(), which returns a Backend
// whose optional capabilities (Deselector, SymbolInjector) mirror the
// wrapped backend's — all of them guarded.
//
// A guarded sink is a leaf of the backend graph: walkBackends descends only
// into fan-outs, so the walks (symbol injection, deselector collection)
// reach the wrapped backend through the guarded capabilities above and
// never around the barrier.
//
// Accounting: DroppedPanicked counts enter events (in the identity's enter
// units) that did not reach the backend — the enter that panicked plus
// every enter arriving after the breaker opened. Exit-side panics are
// recovered and counted toward the breaker but not toward DroppedPanicked;
// the conservation identity is stated in enter units.
type Guard struct {
	inner  Backend
	ds     Deselector     // inner's, nil when not implemented
	si     SymbolInjector // inner's, nil when not implemented
	sink   Backend
	limit  int64 // 0 = never trip
	onTrip func(string)

	tripped   atomic.Bool
	panics    atomic.Int64
	dropped   atomic.Int64 // enter units, see type comment
	lastPanic atomic.Value // of string
}

// NewGuard wraps inner. Use g.Sink() as the chain element.
func NewGuard(inner Backend, opts GuardOptions) *Guard {
	g := &Guard{inner: inner, onTrip: opts.OnTrip}
	switch {
	case opts.PanicLimit > 0:
		g.limit = int64(opts.PanicLimit)
	case opts.PanicLimit == 0:
		g.limit = DefaultPanicLimit
	}
	g.ds, _ = inner.(Deselector)
	g.si, _ = inner.(SymbolInjector)
	switch {
	case g.ds != nil && g.si != nil:
		g.sink = guardDSI{guardDS{g}}
	case g.ds != nil:
		g.sink = guardDS{g}
	case g.si != nil:
		g.sink = guardSI{g}
	default:
		g.sink = g
	}
	return g
}

// Sink returns the guarded chain element: a Backend that implements
// exactly the optional capabilities (Deselector, SymbolInjector) the
// wrapped backend implements. Its identity is stable for the Guard's
// lifetime, so SwapBackend's arrival/departure diff recognizes it.
func (g *Guard) Sink() Backend { return g.sink }

// Name reports the wrapped backend's name: the guard is transparent in
// all per-backend accounting (synthetic exits, reports, mux naming).
func (g *Guard) Name() string { return g.inner.Name() }

//capi:hotpath
func (g *Guard) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if g.tripped.Load() {
		g.dropped.Add(1)
		return
	}
	g.enter(tc, fn)
}

//capi:hotpath
func (g *Guard) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if g.tripped.Load() {
		return
	}
	g.exit(tc, fn)
}

// enter delivers one enter event behind the barrier. The deferred recover
// is open-coded by the compiler (no allocation, no lock); its body only
// runs when the backend panics, which is off the non-failing path by
// definition.
//
//capi:hotpath
func (g *Guard) enter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	//capi:hotpath-ok deferred recover barrier: open-coded by the compiler, body runs only when the backend panics
	defer func() {
		if r := recover(); r != nil {
			g.dropped.Add(1)
			g.panicked(r)
		}
	}()
	g.inner.OnEnter(tc, fn)
}

//capi:hotpath
func (g *Guard) exit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	//capi:hotpath-ok deferred recover barrier: open-coded by the compiler, body runs only when the backend panics
	defer func() {
		if r := recover(); r != nil {
			g.panicked(r)
		}
	}()
	g.inner.OnExit(tc, fn)
}

// InitCost probes the wrapped backend's start-up cost; a panicking cost
// model counts toward the breaker and costs nothing.
func (g *Guard) InitCost(symbolsScanned int) (cost int64) {
	defer func() {
		if r := recover(); r != nil {
			g.panicked(r)
			cost = 0
		}
	}()
	return g.inner.InitCost(symbolsScanned)
}

// onDeselect guards the synthetic-exit path: a panic while closing
// dangling state is recovered (the state is then simply lost — the
// backend is broken anyway) and counted toward the breaker.
func (g *Guard) onDeselect(fn *ResolvedFunc) (n int) {
	if g.tripped.Load() {
		return 0
	}
	defer func() {
		if r := recover(); r != nil {
			g.panicked(r)
			n = 0
		}
	}()
	return g.ds.OnDeselect(fn)
}

// injectSymbol guards DSO symbol injection.
func (g *Guard) injectSymbol(addr uint64, name string) {
	if g.tripped.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			g.panicked(r)
		}
	}()
	g.si.InjectSymbol(addr, name)
}

// bindNames forwards the runtime's name lookup to the wrapped backend; every
// sink shape embeds the Guard, so the lookup reaches a guarded tracer.
func (g *Guard) bindNames(names func(int32) string) {
	if nb, ok := g.inner.(nameBinder); ok {
		nb.bindNames(names)
	}
}

// RecordPanic counts a panic recovered outside the event path (the
// instance layer guards StartPhase and Report itself) toward the same
// breaker, so a backend that only breaks at phase boundaries still trips.
//
//capi:coldpath
func (g *Guard) RecordPanic(r any) { g.panicked(r) }

// panicked is the cold path shared by every recover site: count, remember
// the panic value, and trip the breaker at the limit.
//
//capi:coldpath
func (g *Guard) panicked(r any) {
	n := g.panics.Add(1)
	g.lastPanic.Store(fmt.Sprint(r))
	if g.limit > 0 && n >= g.limit && g.tripped.CompareAndSwap(false, true) {
		if g.onTrip != nil {
			// Off this goroutine: the trip may have unwound out of a
			// dispatch handler or a consumer, and detaching swaps the
			// backend chain under locks the event path must not take.
			go g.onTrip(g.inner.Name())
		}
	}
}

// Tripped reports whether the breaker is open.
func (g *Guard) Tripped() bool { return g.tripped.Load() }

// GuardStats is a point-in-time view of one guard's counters.
type GuardStats struct {
	Backend         string `json:"backend"`
	Panics          int64  `json:"panics"`
	DroppedPanicked int64  `json:"droppedPanicked"`
	Tripped         bool   `json:"tripped"`
	LastPanic       string `json:"lastPanic,omitempty"`
}

// Stats snapshots the guard's counters.
func (g *Guard) Stats() GuardStats {
	last, _ := g.lastPanic.Load().(string)
	return GuardStats{
		Backend:         g.inner.Name(),
		Panics:          g.panics.Load(),
		DroppedPanicked: g.dropped.Load(),
		Tripped:         g.tripped.Load(),
		LastPanic:       last,
	}
}

// guardDS / guardSI / guardDSI are the capability-matched sink shapes:
// one-word structs wrapping the Guard so that interface type assertions
// against the sink see exactly the capabilities the inner backend has.
type guardDS struct{ *Guard }

func (w guardDS) OnDeselect(fn *ResolvedFunc) int { return w.Guard.onDeselect(fn) }

type guardSI struct{ *Guard }

func (w guardSI) InjectSymbol(addr uint64, name string) { w.Guard.injectSymbol(addr, name) }

type guardDSI struct{ guardDS }

func (w guardDSI) InjectSymbol(addr uint64, name string) { w.Guard.injectSymbol(addr, name) }
