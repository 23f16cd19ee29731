// Package middleware maps live net/http request traffic onto CaPI's
// instrumented dispatch path, so a serving process adapts its
// instrumentation from the traffic it actually receives.
//
// Two layers are provided:
//
//   - Tap wraps any http.Handler: each request begins with a
//     function-entry dispatch of one resolved route function and ends
//     with the matching exit, and the wall-clock latency feeds the
//     instance's per-endpoint histograms (and, on an SLO-adaptive
//     instance, the tail-latency controller).
//
//   - Service executes a synthetic webservice program (see
//     capi.Webservice) end to end: each request runs the endpoint
//     handler's full call tree on a virtual clock, dispatching an
//     enter/exit pair for every instrumented function it visits. The
//     measurement backends charge their per-event costs to that same
//     clock (inline mode), so the coverage/latency trade-off the SLO
//     controller navigates is directly observable: deselecting or
//     demoting a hot function measurably lowers the endpoint's tail
//     latency — and the async pipeline lifts the cost off the request
//     path entirely.
//
// Both layers draw dispatch contexts from the instance's HTTP worker
// pool (capi.RunOptions.HTTPWorkers): every concurrent request owns a
// dedicated rank with its own virtual clock, async pipeline shard and
// sampler slot, preserving the single-writer hot-path contract without
// touching the MPI world's ranks.
package middleware

import (
	"net/http"
	"time"

	"capi"
)

// Options configures a Service's worker pool and latency spread.
type Options struct {
	// Workers is the number of request contexts to check out from the
	// instance (concurrent request capacity). Default 4; the instance
	// must have been started with at least this many
	// RunOptions.HTTPWorkers.
	Workers int

	// Seed seeds the per-worker latency-spread generators. Default 1.
	Seed int64
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Tap dispatches one enter/exit pair per request for a single resolved
// route function around an arbitrary inner handler, and records the
// wall-clock latency against the endpoint. Use it to attach a real
// (non-synthetic) handler to an instrumented instance.
type Tap struct {
	inst     *capi.Instance
	endpoint string
	id       int32
	resolved bool
	pool     chan *capi.RequestContext
}

// NewTap resolves funcName against the instance's instrumented set and
// checks out `workers` request contexts for it. An unresolvable name is
// not an error: the tap still measures latency, it just has no function
// to dispatch (mirroring a route whose handler was never instrumented).
func NewTap(inst *capi.Instance, endpoint, funcName string, workers int) (*Tap, error) {
	if workers <= 0 {
		workers = 4
	}
	rcs, err := inst.NewRequestContexts(workers)
	if err != nil {
		return nil, err
	}
	t := &Tap{inst: inst, endpoint: endpoint, pool: make(chan *capi.RequestContext, workers)}
	for _, rc := range rcs {
		t.pool <- rc
	}
	if id, ok := inst.ResolveFunctionName(funcName); ok {
		t.id, t.resolved = id, true
		inst.RegisterHTTPEndpoint(endpoint, []int32{id})
	} else {
		inst.RegisterHTTPEndpoint(endpoint, nil)
	}
	return t, nil
}

// Wrap returns the instrumented handler. Requests beyond the worker pool
// block until a context frees up, bounding dispatch concurrency at the
// pool size.
func (t *Tap) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := <-t.pool
		defer func() { t.pool <- rc }()
		entered := t.resolved && t.inst.FunctionActive(t.id)
		if entered {
			rc.Enter(t.id)
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start).Nanoseconds()
		rc.Advance(elapsed)
		if entered {
			rc.Exit(t.id)
		}
		t.inst.ObserveHTTPRequest(t.endpoint, elapsed)
	})
}

// Endpoint returns the endpoint name latencies are recorded under.
func (t *Tap) Endpoint() string { return t.endpoint }
