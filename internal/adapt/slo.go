// SLO mode: when Options.SLOTargetP99Ns is set the controller stops
// steering by the overhead budget (maybeEpoch disarms) and instead climbs
// the ladder *per endpoint*, driven by measured tail latency. The objective
// is inverted relative to budget mode: "p99 ≤ X with max instrumentation
// coverage" — narrowing only while the endpoint misses its target, and
// undoing the endpoint's steps (LIFO) to restore coverage once the tail sits
// comfortably under it. The cost signal is the real one users care about —
// request latency including instrumentation — not a modelled events×ns
// estimate.
//
// The HTTP middleware feeds the controller: it registers each route's
// instrumented call tree (RegisterEndpoint) and reports every completed
// request's latency (ObserveRequest). Evaluation happens on the request
// path but is cheap and rare: one ring-buffer write per request, a p99
// sort every sloEvalEvery requests per endpoint, and at most one ladder
// step per evaluation, serialized with budget epochs through the same
// inEpoch gate.
package adapt

import (
	"math"
	"slices"
	"sort"
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

// endpointStat is the controller's per-endpoint accumulator: the route's
// instrumented function set and a ring of recent request latencies. The
// ladder steps it owns are on the controller's one ladder.
type endpointStat struct {
	name    string
	funcIDs []int32 // sorted, deduplicated; immutable after registration

	requests atomic.Int64
	lastP99  atomic.Int64 // most recently computed window p99 (0 = none yet)

	mu        sync.Mutex
	ring      []int64 //capi:guardedby mu
	written   int     //capi:guardedby mu
	sinceEval int     //capi:guardedby mu
	evals     int     //capi:guardedby mu — evaluations run for this endpoint
	lastWiden int     //capi:guardedby mu — evals value at the last widen (0 = never)
	widenWait int     //capi:guardedby mu — evals to wait between widens (backoff)
}

// RegisterEndpoint declares one endpoint's instrumented function set. The
// middleware calls it once per route at construction; re-registering a
// name replaces the function set but keeps the latency window and ladder
// state. Unregistered endpoints' observations are ignored.
func (c *Controller) RegisterEndpoint(name string, funcIDs []int32) {
	ids := slices.Compact(slices.Sorted(slices.Values(funcIDs)))
	if v, ok := c.endpoints.Load(name); ok {
		es := v.(*endpointStat)
		es.mu.Lock()
		es.funcIDs = ids
		es.mu.Unlock()
		return
	}
	c.endpoints.LoadOrStore(name, &endpointStat{name: name, funcIDs: ids})
}

// ObserveRequest records one completed request's latency for an endpoint
// and, every sloEvalEvery requests once the window is warm, evaluates the
// endpoint's p99 against the SLO target and walks the ladder one step in
// whichever direction the tail demands. With no SLO target set the window
// still fills (so a later Retune starts from warm state) but no decisions
// are taken.
func (c *Controller) ObserveRequest(endpoint string, latencyNs int64) {
	v, ok := c.endpoints.Load(endpoint)
	if !ok {
		return
	}
	es := v.(*endpointStat)
	es.requests.Add(1)
	opts := c.opts.Load()

	es.mu.Lock()
	if len(es.ring) != opts.SLOWindow {
		// First observation, or the window was retuned: restart the ring.
		es.ring = make([]int64, opts.SLOWindow)
		es.written, es.sinceEval = 0, 0
	}
	es.ring[es.written%len(es.ring)] = latencyNs
	es.written++
	es.sinceEval++
	filled := min(es.written, len(es.ring))
	var window []int64
	var evalNo int
	widenOK := false
	if opts.SLOTargetP99Ns > 0 && es.sinceEval >= sloEvalEvery && filled >= min(opts.SLOMinSamples, len(es.ring)) {
		es.sinceEval = 0
		window = append([]int64(nil), es.ring[:filled]...)
		es.evals++
		evalNo = es.evals
		wait := max(es.widenWait, 1)
		widenOK = es.lastWiden == 0 || evalNo-es.lastWiden >= wait
	}
	es.mu.Unlock()
	if window == nil {
		return
	}

	slices.Sort(window)
	p99 := Quantile(window, 0.99)
	es.lastP99.Store(p99)
	rt := c.rt.Load()
	if rt == nil {
		return
	}
	// Same gate as budget epochs: at most one controller decision in
	// flight, across all endpoints. Losing the race just defers this
	// endpoint to its next evaluation.
	if !c.inEpoch.CompareAndSwap(false, true) {
		return
	}
	defer c.inEpoch.Store(false)
	target := opts.SLOTargetP99Ns
	ep := Epoch{Rank: -1, Endpoint: es.name, P99Ns: p99, TargetNs: target}
	switch {
	case p99 > target:
		// One step down per evaluation, so the next window measures its
		// effect before another is taken — gentlest first: the hottest of
		// the endpoint's functions still at full rate is demoted, and only
		// when all are demoted is the hottest one deselected.
		var scope []*dyncapi.ResolvedFunc
		for _, id := range es.funcIDs {
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

// SLOSnapshot returns the SLO-mode status, or nil when no SLO target is
// set (budget mode).
func (c *Controller) SLOSnapshot() *SLOStatus {
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
	c.endpoints.Range(func(_, v any) bool {
		es := v.(*endpointStat)
		row := SLOEndpoint{Endpoint: es.name, Requests: es.requests.Load()}
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
		return true
	})
	sort.Slice(out.Endpoints, func(i, j int) bool { return out.Endpoints[i].Endpoint < out.Endpoints[j].Endpoint })
	return out
}
