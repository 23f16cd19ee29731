package dyncapi

import (
	"strings"

	"capi/internal/xray"
)

// Mux fans every instrumentation event out to N measurement backends, so one
// run can feed several consumers from the same event stream — TALP
// efficiency metrics *and* an Extrae-style trace, say — the way
// Diagnose-style probes attach multiple instruments to one event source.
//
// The child list is fixed at construction: the hot path ranges over a plain
// slice with no locking, so a mux of one costs a single bounds-checked
// iteration over the direct backend (the benchmark ladder's
// dyncapi.mux1_ns rung measures exactly that delta). Swapping the backend set
// of a live runtime swaps the whole Mux (Runtime.SwapBackend), never the
// slice in place.
//
// Mux is the only fan-out, and its children are leaves: nothing nests one.
// It deliberately implements no optional capability itself: the runtime
// resolves its children once, at attach, into the chain's leaves, so
// synthetic exits are delivered — and *counted* — per child backend
// (ReconfigReport.SyntheticExitsByBackend), symbols are injected into each
// child that takes them, and each child pays its own start-up cost.
type Mux struct {
	backends []Backend
	name     string
}

// NewMux builds a fan-out over the given backends, in delivery order.
func NewMux(backends ...Backend) *Mux {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return &Mux{backends: backends, name: "mux(" + strings.Join(names, ",") + ")"}
}

// Name implements Backend.
func (m *Mux) Name() string { return m.name }

// OnEnter implements Backend: every child sees the event, in order.
//
//capi:hotpath
func (m *Mux) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	for _, b := range m.backends {
		b.OnEnter(tc, fn)
	}
}

// OnExit implements Backend.
//
//capi:hotpath
func (m *Mux) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	for _, b := range m.backends {
		b.OnExit(tc, fn)
	}
}

// InitCost implements Backend: each attached measurement system pays its own
// start-up, so the mux sums them.
func (m *Mux) InitCost(symbols int) int64 {
	var total int64
	for _, b := range m.backends {
		total += b.InitCost(symbols)
	}
	return total
}
