package capi

// The instance-level half of the panic barrier (the event-path half is
// internal/dyncapi/guard.go): every registry-built MeasurementBackend is
// wrapped in a guardedBackend so its phase lifecycle (StartPhase, Report)
// is recovered too, and a tripped circuit breaker auto-detaches the
// backend from the live chain through the SwapBackend machinery — the
// instrumented process never crashes because a measurement tool did.

import (
	"capi/internal/dyncapi"
)

// DefaultPanicLimit is the per-backend circuit-breaker threshold when
// RunOptions.PanicLimit is 0: after this many recovered panics in one
// backend's delivery paths the backend is auto-detached.
const DefaultPanicLimit = dyncapi.DefaultPanicLimit

// BreakerStatus is one backend's panic-barrier state, surfaced in
// InstanceStatus, RunResult and the /v1/report envelope.
type BreakerStatus = dyncapi.GuardStats

// BreakerEvent describes one circuit-breaker trip, delivered to the
// function registered with Instance.SetBreakerNotify (the control plane's
// SSE feed).
type BreakerEvent struct {
	// Backend is the tripped backend's name.
	Backend string `json:"backend"`
	// Panics is the recovered-panic count at trip time; LastPanic renders
	// the most recent panic value.
	Panics    int64  `json:"panics"`
	LastPanic string `json:"lastPanic,omitempty"`
	// Detached reports whether the backend was removed from the live event
	// chain; it is false only when the trip came before the runtime
	// existed or the swap failed. The backend leaves the phase lifecycle
	// and the report set either way.
	Detached bool `json:"detached"`
	// SyntheticExits counts the dangling enters closed when the detach
	// swapped the backend out of the chain.
	SyntheticExits int `json:"syntheticExits,omitempty"`
}

// guardedBackend wraps a registry-built backend: its event sink runs
// behind a dyncapi.Guard, and the phase-boundary calls (StartPhase,
// Report) recover panics into the same breaker. A StartPhase or Report
// panic degrades (the phase runs without the backend's phase hook / the
// report entry is nil) instead of failing the run — the reliability
// promise is that instrument errors never affect the host program.
type guardedBackend struct {
	inner MeasurementBackend
	g     *dyncapi.Guard
}

func newGuardedBackend(mb MeasurementBackend, gopts dyncapi.GuardOptions) *guardedBackend {
	return &guardedBackend{inner: mb, g: dyncapi.NewGuard(mb.Events(), gopts)}
}

func (b *guardedBackend) Name() string         { return b.inner.Name() }
func (b *guardedBackend) Events() EventBackend { return b.g.Sink() }

func (b *guardedBackend) StartPhase(w *World) (err error) {
	if b.g.Tripped() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			b.g.RecordPanic(r)
			err = nil
		}
	}()
	return b.inner.StartPhase(w)
}

func (b *guardedBackend) Report() (rep Report) {
	if b.g.Tripped() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			b.g.RecordPanic(r)
			rep = nil
		}
	}()
	return b.inner.Report()
}

// guardsOf collects the guards of a freshly built backend set.
func guardsOf(backends []MeasurementBackend) []*dyncapi.Guard {
	var out []*dyncapi.Guard
	for _, mb := range backends {
		if gb, ok := mb.(*guardedBackend); ok {
			out = append(out, gb.g)
		}
	}
	return out
}

// onBreakerTrip is the Guard's OnTrip hook; it runs on its own goroutine.
func (i *Instance) onBreakerTrip(name string) {
	ev := i.breakerDetach(name)
	i.mu.Lock()
	fn := i.breakerNotify
	i.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// SetBreakerNotify registers fn to be called (on the breaker's goroutine)
// whenever a backend's circuit breaker trips. The control plane uses it to
// publish SSE "breaker" events. Pass nil to unregister.
func (i *Instance) SetBreakerNotify(fn func(BreakerEvent)) {
	i.mu.Lock()
	i.breakerNotify = fn
	i.mu.Unlock()
}

// breakerDetach removes the tripped backend from the live instance: the
// chain is swapped (via the SwapBackend diff machinery — it closes only the
// departing backend's dangling state) to the remaining backends plus the
// tripped guard's tombstone, which keeps the drop accounting exact for the
// rest of the run.
func (i *Instance) breakerDetach(name string) BreakerEvent {
	i.mu.Lock()
	defer i.mu.Unlock()

	ev := BreakerEvent{Backend: name}
	var tripped *guardedBackend
	remaining := make([]MeasurementBackend, 0, len(i.backends))
	for _, mb := range i.backends {
		gb, ok := mb.(*guardedBackend)
		if tripped == nil && ok && gb.Name() == name && gb.g.Tripped() {
			tripped = gb
			continue
		}
		remaining = append(remaining, mb)
	}
	if tripped == nil {
		// Already detached, or the backend set was swapped away underneath
		// the trip goroutine. Nothing to do.
		return ev
	}
	st := tripped.g.Stats()
	ev.Panics, ev.LastPanic = st.Panics, st.LastPanic

	// A trip during Start (a panicking InitCost or symbol injection) can
	// land before the runtime exists.
	if i.rt != nil {
		if rep, err := i.rt.SwapBackend(i.chain(remaining, tripped.g.Tombstone())); err == nil {
			i.pendingNs += rep.VirtualNs
			ev.Detached = true
			ev.SyntheticExits = rep.SyntheticExits
		}
	}
	i.backends = remaining
	i.detached = append(i.detached, name)
	return ev
}

// breakerSnapshotLocked summarizes the instance's guards: the per-backend
// stats of every guard that ever saw a panic, the detached names, and the
// total DroppedPanicked. Callers hold i.mu.
func (i *Instance) breakerSnapshotLocked() (stats []BreakerStatus, detached []string, dropped int64) {
	for _, g := range i.guards {
		st := g.Stats()
		dropped += st.DroppedPanicked
		if st.Panics > 0 || st.Tripped {
			stats = append(stats, st)
		}
	}
	if len(i.detached) > 0 {
		detached = append(detached, i.detached...)
	}
	return stats, detached, dropped
}
