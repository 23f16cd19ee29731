package capi

// The instance's side of the panic barrier: every registry-built
// MeasurementBackend is held as a dyncapi.Guard (internal/dyncapi/guard.go),
// the one barrier its events, phase lifecycle and reports run behind, and a
// tripped circuit breaker auto-detaches the backend from the instance — the
// instrumented process never crashes because a measurement tool did.

import (
	"slices"

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
	// Detached reports whether this trip removed the backend from the
	// phase lifecycle and report set (false when a SetBackends did first).
	// Its tripped guard stays in the live chain until the next SetBackends,
	// counting every enter as DroppedPanicked.
	Detached bool `json:"detached"`
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

// breakerDetach removes the tripped backend from the instance's backend
// set. Its guard stays in the live chain: an open breaker delivers nothing
// and counts every enter as DroppedPanicked, so the books stay exact.
func (i *Instance) breakerDetach(name string) BreakerEvent {
	i.mu.Lock()
	defer i.mu.Unlock()

	ev := BreakerEvent{Backend: name}
	for k, g := range i.backends {
		if g.Name() != name || !g.Tripped() {
			continue
		}
		st := g.Stats()
		ev.Panics, ev.LastPanic, ev.Detached = st.Panics, st.LastPanic, true
		i.backends = slices.Delete(slices.Clone(i.backends), k, k+1)
		i.detached = append(i.detached, name)
		break
	}
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
