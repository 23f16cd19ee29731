// SLO mode: when Options.SLOTargetP99Ns is set the controller stops
// steering by the overhead budget (Collective only drains the windows) and
// instead climbs the ladder *per endpoint*, driven by measured tail
// latency. The objective is inverted relative to budget mode: "p99 ≤ X with
// max instrumentation coverage" — narrowing only while the endpoint misses
// its target, and undoing the endpoint's steps (LIFO) to restore coverage
// once the tail sits comfortably under it. The cost signal is the real one
// users care about — request latency including instrumentation — not a
// modelled events×ns estimate.
//
// The controller keeps no request record of its own. The instance records
// every request into the route's Endpoint (its instrumented call tree and
// a ring of recent latencies) and then hands the controller that record
// (ObserveRequest). Evaluation happens on the request path but is cheap
// and rare: a counter check per request, a p99 sort of the newest
// SLOWindow latencies every sloEvalEvery requests per endpoint, and at
// most one ladder step per evaluation, serialized with budget decisions
// through the decide mutex.
package adapt

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"capi/internal/dyncapi"
)

const (
	// DefaultSLOWindow is the per-endpoint latency window (requests) the
	// p99 is computed over when Options.SLOWindow is 0.
	DefaultSLOWindow = 256
	// DefaultSLOMinSamples gates evaluation until an endpoint's window has
	// seen enough requests for a p99 to mean anything.
	DefaultSLOMinSamples = 64
	// sloEvalEvery is how many requests an endpoint absorbs between
	// evaluations: frequent enough to react within ~a window, rare enough
	// that the sort never shows up in request latency.
	sloEvalEvery = 32
	// widenHeadroom is the hysteresis band for restoring coverage: the
	// ladder is un-walked only while p99 ≤ headroom × target, so widening
	// (which triggers well under target) cannot oscillate against
	// narrowing (which triggers only above it).
	widenHeadroom = 0.75
	// widenWaitMax caps the widen backoff (in evaluations). The
	// headroom band alone cannot prevent oscillation when one ladder
	// action swings the endpoint's p99 by more than the band's width (a
	// dropped subtree can be worth many ms), so every widen that is
	// punished by a narrow within the next two evaluations doubles the
	// endpoint's wait before it may widen again.
	widenWaitMax = 256
)

// EndpointWindow is how many of an endpoint's most recent request
// latencies its record keeps: the window /v1/status reads p50/p99 over, and
// the bound on Options.SLOWindow.
const EndpointWindow = 1024

// Endpoint is one served route's request record: its instrumented function
// set, request count, newest EndpointWindow latencies and SLO ladder state.
// The instance keeps the only one per route; the controller reads the same
// ring, and the steps an endpoint owns are on the controller's one ladder.
type Endpoint struct {
	Name string // immutable

	funcIDs  atomic.Pointer[[]int32] // sorted, deduplicated; replaced wholesale
	requests atomic.Int64
	lastP99  atomic.Int64 // most recently evaluated window p99 (0 = none yet)

	mu        sync.Mutex
	ring      [EndpointWindow]int64 //capi:guardedby mu
	written   int                   //capi:guardedby mu
	sinceEval int                   //capi:guardedby mu
	evals     int                   //capi:guardedby mu — evaluations run for this endpoint
	lastWiden int                   //capi:guardedby mu — evals value at the last widen (0 = never)
	widenWait int                   //capi:guardedby mu — evals to wait between widens (backoff)
}

// NewEndpoint returns an empty record for the named route.
func NewEndpoint(name string) *Endpoint {
	e := &Endpoint{Name: name}
	e.SetFuncIDs(nil)
	return e
}

// SetFuncIDs replaces the endpoint's instrumented function set. Readers
// see the old set or the new one, never a mix, so a route may be
// re-registered while it serves.
func (e *Endpoint) SetFuncIDs(ids []int32) {
	ids = slices.Compact(slices.Sorted(slices.Values(ids)))
	e.funcIDs.Store(&ids)
}

// FuncIDs returns the endpoint's function set, sorted; callers must not
// modify it.
func (e *Endpoint) FuncIDs() []int32 { return *e.funcIDs.Load() }

// Requests returns how many requests were recorded.
func (e *Endpoint) Requests() int64 { return e.requests.Load() }

// Record books one completed request's latency. Safe for concurrent use.
func (e *Endpoint) Record(latencyNs int64) {
	e.requests.Add(1)
	e.mu.Lock()
	e.ring[e.written%EndpointWindow] = latencyNs
	e.written++
	e.sinceEval++
	e.mu.Unlock()
}

// Window returns the newest n recorded latencies (fewer while fewer were
// recorded) as a sorted copy.
func (e *Endpoint) Window(n int) []int64 {
	e.mu.Lock()
	out := make([]int64, min(n, e.written, EndpointWindow))
	for k := range out {
		out[k] = e.ring[(e.written-1-k)%EndpointWindow]
	}
	e.mu.Unlock()
	slices.Sort(out)
	return out
}

// ObserveRequest is the controller's look at an endpoint after a request
// was recorded into it: every sloEvalEvery requests once the window is
// warm, it evaluates the p99 of the endpoint's newest SLOWindow latencies
// against the SLO target and walks the ladder one step in whichever
// direction the tail demands. With no SLO target set it takes no decision;
// the record keeps filling, so a later Retune starts from warm state.
func (c *Controller) ObserveRequest(es *Endpoint) {
	opts := c.opts.Load()
	if opts.SLOTargetP99Ns <= 0 {
		return
	}
	es.mu.Lock()
	if es.sinceEval < sloEvalEvery || min(es.written, opts.SLOWindow) < min(opts.SLOMinSamples, opts.SLOWindow) {
		es.mu.Unlock()
		return
	}
	es.sinceEval = 0
	es.evals++
	evalNo := es.evals
	widenOK := es.lastWiden == 0 || evalNo-es.lastWiden >= max(es.widenWait, 1)
	es.mu.Unlock()

	p99 := Quantile(es.Window(opts.SLOWindow), 0.99)
	es.lastP99.Store(p99)
	rt := c.rt
	// At most one controller decision in flight, across all endpoints and
	// the budget path. Losing the race just defers this endpoint to its
	// next evaluation.
	if !c.decide.TryLock() {
		return
	}
	defer c.decide.Unlock()
	target := opts.SLOTargetP99Ns
	ep := Epoch{Endpoint: es.Name, P99Ns: p99, TargetNs: target}
	switch {
	case p99 > target:
		// One step down per evaluation, so the next window measures its
		// effect before another is taken — gentlest first: the hottest of
		// the endpoint's functions still at full rate is demoted, and only
		// when all are demoted is the hottest one deselected.
		var scope []*dyncapi.ResolvedFunc
		for _, id := range es.FuncIDs() {
			if rt.Active(id) {
				scope = append(scope, rt.Resolved(id))
			}
		}
		if cands := c.candidates(scope, false); len(cands) > 0 {
			pick := slices.IndexFunc(cands, func(v victim) bool { return !c.isDemoted(v.id) })
			if pick < 0 {
				pick = 0
			}
			c.narrow(rt, cands[pick:pick+1], es, &ep, math.MaxInt64)
		}
		c.appendEpoch(ep)
		// A violation right after a widen means the restored coverage is
		// what broke the SLO: back the endpoint's widen cadence off so the
		// ladder settles instead of ping-ponging one action forever.
		es.mu.Lock()
		if es.lastWiden > 0 && evalNo-es.lastWiden <= 2 {
			es.widenWait = min(max(es.widenWait, 1)*2, widenWaitMax)
		}
		es.mu.Unlock()
	case float64(p99) <= widenHeadroom*float64(target) && widenOK:
		// Max coverage is the objective: headroom under the target is spent
		// on undoing the endpoint's most recent step.
		if c.stepUp(rt, func(st step) bool { return st.owner == es }, &ep) {
			c.appendEpoch(ep)
		}
		es.mu.Lock()
		es.lastWiden = evalNo
		es.mu.Unlock()
	}
}

// Quantile reads the nearest-rank q-quantile from a sorted, non-empty
// window.
func Quantile(sorted []int64, q float64) int64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SLOEndpoint is one endpoint row of the SLO status document.
type SLOEndpoint struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	// P99Ms is the most recently evaluated window p99; 0 until the first
	// evaluation.
	P99Ms float64 `json:"p99Ms"`
	// Met reports whether that p99 sat at or under the target.
	Met bool `json:"met"`
	// Steps is the number of ladder actions currently in effect for the
	// endpoint; Demoted and Dropped list them.
	Steps   int      `json:"steps"`
	Demoted []string `json:"demoted,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
}

// SLOStatus is the controller's SLO-mode snapshot for /v1/status.
type SLOStatus struct {
	TargetP99Ms float64       `json:"targetP99Ms"`
	Window      int           `json:"window"`
	MinSamples  int           `json:"minSamples"`
	Endpoints   []SLOEndpoint `json:"endpoints,omitempty"`
}

// SLOSnapshot returns the SLO-mode status with one row per endpoint
// record, in the given order, or nil when no SLO target is set (budget
// mode).
func (c *Controller) SLOSnapshot(endpoints []*Endpoint) *SLOStatus {
	opts := c.opts.Load()
	if opts.SLOTargetP99Ns <= 0 {
		return nil
	}
	out := &SLOStatus{
		TargetP99Ms: float64(opts.SLOTargetP99Ns) / 1e6,
		Window:      opts.SLOWindow,
		MinSamples:  opts.SLOMinSamples,
	}
	c.mu.Lock()
	ladder := slices.Clone(c.ladder)
	c.mu.Unlock()
	for _, es := range endpoints {
		row := SLOEndpoint{Endpoint: es.Name, Requests: es.Requests()}
		if p99 := es.lastP99.Load(); p99 > 0 {
			row.P99Ms = float64(p99) / 1e6
			row.Met = p99 <= opts.SLOTargetP99Ns
		}
		for _, st := range ladder {
			if st.owner != es {
				continue
			}
			row.Steps++
			if st.drop {
				row.Dropped = append(row.Dropped, displayName(st.name, st.id))
			} else {
				row.Demoted = append(row.Demoted, displayName(st.name, st.id))
			}
		}
		out.Endpoints = append(out.Endpoints, row)
	}
	return out
}
