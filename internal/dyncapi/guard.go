package dyncapi

// A tripped backend must never take the host down with it: the Diagnose
// library's reliability promise is that instrument errors never affect the
// instrumented program. Guard is the panic barrier that keeps it — every
// call into a measurement backend (enter/exit events, synthetic exits,
// symbol injection, init-cost probes, the phase lifecycle and reports) runs
// behind a recover, and a per-backend circuit breaker detaches a backend
// that keeps panicking. It is the only barrier: the instance layer holds
// guards, not backends.
//
// The non-failing path pays one atomic load (the breaker state) and one
// deferred-recover frame per event; Go open-codes both, so the guarded
// chain stays within the dispatch bench gates. The recover machinery only
// does work when a panic actually unwinds.

import (
	"fmt"
	"sync/atomic"

	"capi/internal/mpi"
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
// breaker, and is itself the chain element: everything the runtime or the
// instance delivers to the backend — events, InitCost, StartPhase, Report,
// OnDeselect, InjectSymbol and name binding — runs behind the one barrier.
// The guard has every optional method but forwards only what the inner
// backend has; capabilities answers for the inner backend, so the runtime's
// walks see a Deselector or SymbolInjector exactly when the backend is one.
//
// Accounting: DroppedPanicked counts enter events (in the identity's enter
// units) that did not reach the backend — the enter that panicked plus
// every enter arriving after the breaker opened. Panics anywhere else are
// recovered and counted toward the breaker but not toward DroppedPanicked;
// the conservation identity is stated in enter units.
type Guard struct {
	inner  MeasurementBackend
	name   string         // inner's, read once: the backend's one name
	ds     Deselector     // inner's, nil when not implemented
	si     SymbolInjector // inner's, nil when not implemented
	limit  int64          // 0 = never trip
	onTrip func(string)

	tripped   atomic.Bool
	panics    atomic.Int64
	dropped   atomic.Int64 // enter units, see type comment
	lastPanic atomic.Value // of string
}

// NewGuard wraps inner.
func NewGuard(inner MeasurementBackend, opts GuardOptions) *Guard {
	g := &Guard{inner: inner, name: inner.Name(), onTrip: opts.OnTrip}
	switch {
	case opts.PanicLimit > 0:
		g.limit = int64(opts.PanicLimit)
	case opts.PanicLimit == 0:
		g.limit = DefaultPanicLimit
	}
	g.ds, _ = inner.(Deselector)
	g.si, _ = inner.(SymbolInjector)
	return g
}

// Sink returns the guard itself, the chain element.
func (g *Guard) Sink() Backend { return g }

// capabilities returns b's optional interfaces. A Guard answers for its
// inner backend: it forwards only what that backend has.
func capabilities(b Backend) (ds Deselector, si SymbolInjector) {
	g, ok := b.(*Guard)
	if !ok {
		ds, _ = b.(Deselector)
		si, _ = b.(SymbolInjector)
		return ds, si
	}
	if g.ds != nil {
		ds = g
	}
	if g.si != nil {
		si = g
	}
	return ds, si
}

// Name reports the wrapped backend's name, read when the guard was built:
// the guard is transparent in all per-backend accounting (synthetic exits,
// reports, breaker stats and detach, mux naming).
func (g *Guard) Name() string { return g.name }

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

// barrier runs f behind the breaker: not at all when it is open, and a
// panic in f counts toward it. The callers' results stay zero unless f
// returned.
func (g *Guard) barrier(f func()) {
	if g.tripped.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			g.panicked(r)
		}
	}()
	f()
}

// InitCost probes the wrapped backend's start-up cost; a panicking cost
// model counts toward the breaker and costs nothing.
func (g *Guard) InitCost(symbolsScanned int) (cost int64) {
	g.barrier(func() { cost = g.inner.InitCost(symbolsScanned) })
	return cost
}

// StartPhase attaches the backend's fresh per-phase state. A panic degrades
// to a phase without the backend's phase hook, never to a failed phase.
func (g *Guard) StartPhase(w *mpi.World) (err error) {
	g.barrier(func() { err = g.inner.StartPhase(w) })
	return err
}

// Report returns the backend's report; nil once the breaker is open or
// when Report panics, so a broken backend drops out of the envelope.
func (g *Guard) Report() (rep Envelope) {
	g.barrier(func() { rep = g.inner.Report() })
	return rep
}

// OnDeselect forwards to the backend's Deselector, if it has one. A panic
// while closing dangling state is recovered (the state is then simply
// lost — the backend is broken anyway) and counted toward the breaker.
func (g *Guard) OnDeselect(fn *ResolvedFunc) (n int) {
	if g.ds != nil {
		g.barrier(func() { n = g.ds.OnDeselect(fn) })
	}
	return n
}

// InjectSymbol forwards DSO symbol injection to the backend's
// SymbolInjector, if it has one.
func (g *Guard) InjectSymbol(addr uint64, name string) {
	if g.si != nil {
		g.barrier(func() { g.si.InjectSymbol(addr, name) })
	}
}

// bindNames forwards the runtime's name lookup to the backend, if it names
// function IDs at report time.
func (g *Guard) bindNames(names func(int32) string) {
	if nb, ok := g.inner.(nameBinder); ok {
		g.barrier(func() { nb.bindNames(names) })
	}
}

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
			go g.onTrip(g.name)
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
		Backend:         g.name,
		Panics:          g.panics.Load(),
		DroppedPanicked: g.dropped.Load(),
		Tripped:         g.tripped.Load(),
		LastPanic:       last,
	}
}
