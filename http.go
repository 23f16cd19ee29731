package capi

// Serving-traffic support: the capi/middleware package maps live HTTP
// requests onto the instrumented dispatch path. Each middleware worker
// owns a RequestContext — a dedicated dispatch rank *beyond* the MPI
// world (RunOptions.HTTPWorkers sizes the pool) with its own virtual
// clock, async pipeline shard and sampler slot, so concurrent requests
// keep the single-writer hot-path contract without touching the
// workload's ranks. A RequestContext carries no MPI rank: the TALP
// backend (an MPI-region tool) skips its events by design, while none,
// scorep and extrae receive them like any rank's.
//
// The Instance additionally keeps the one per-endpoint request record, an
// adapt.Endpoint plus a fixed-boundary latency histogram, and on an
// SLO-adaptive instance hands that record to the adapt controller after
// every request as its tail-latency signal.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"capi/internal/adapt"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// httpBucketBoundsNs are the fixed per-endpoint latency histogram
// boundaries (a classic web-latency spread, 0.5ms..1s); the implicit
// +Inf bucket is the endpoint's total request count.
var httpBucketBoundsNs = [...]int64{
	500 * vtime.Microsecond,
	1 * vtime.Millisecond,
	int64(2.5 * float64(vtime.Millisecond)),
	5 * vtime.Millisecond,
	10 * vtime.Millisecond,
	25 * vtime.Millisecond,
	50 * vtime.Millisecond,
	100 * vtime.Millisecond,
	250 * vtime.Millisecond,
	500 * vtime.Millisecond,
	1000 * vtime.Millisecond,
}

// httpState is the Instance's middleware support state.
type httpState struct {
	mu        sync.Mutex
	allocated int                      //capi:guardedby mu — request-context ranks handed out
	endpoints map[string]*httpEndpoint //capi:guardedby mu — map itself; values have own sync
}

// httpEndpoint is one endpoint's request record plus its latency
// histogram. The histogram fields are atomics (many workers observe
// concurrently).
type httpEndpoint struct {
	*adapt.Endpoint

	sumNs   atomic.Int64
	buckets [len(httpBucketBoundsNs)]atomic.Int64 // raw per-bucket counts (not cumulative); the rest is +Inf
}

// RequestContext is one middleware worker's exclusive dispatch context: a
// dedicated rank ID past the MPI world with its own virtual clock. It
// implements the xray thread-context contract, so Enter/Exit feed the
// exact same handler chain — sampler, async pipeline, backends — as the
// workload's ranks. NOT safe for concurrent use; the middleware enforces
// exclusivity with a checkout pool.
//
// Every event writes its context's clock, so a context is padded to one
// 64-byte cache line (which is also its allocation class): two workers never
// write the same line.
type RequestContext struct {
	inst   *Instance
	rankID int
	clk    vtime.Clock
	_      [32]byte
}

// RankID implements the dispatch thread context.
func (rc *RequestContext) RankID() int { return rc.rankID }

// Clock implements the dispatch thread context.
func (rc *RequestContext) Clock() *vtime.Clock { return &rc.clk }

// Now returns the context's virtual clock value.
func (rc *RequestContext) Now() int64 { return rc.clk.Now() }

// Advance moves the context's virtual clock forward by ns (modelled
// request work or instrumentation cost).
func (rc *RequestContext) Advance(ns int64) { rc.clk.Advance(ns) }

// Enter dispatches a function-entry event for id on this context's rank.
func (rc *RequestContext) Enter(id int32) { rc.inst.xr.Dispatch(rc, id, xray.Entry) }

// Exit dispatches a function-exit event for id on this context's rank.
func (rc *RequestContext) Exit(id int32) { rc.inst.xr.Dispatch(rc, id, xray.Exit) }

// NewRequestContexts allocates n exclusive request contexts with rank IDs
// directly after the MPI world. The instance-wide total is bounded by
// RunOptions.HTTPWorkers — each context needs the async pipeline shard
// and sampler slot that Start sized for it. It fails after Close; a
// context taken before Close dispatches nothing afterwards.
func (i *Instance) NewRequestContexts(n int) ([]*RequestContext, error) {
	if n < 1 {
		return nil, fmt.Errorf("capi: request context count %d < 1", n)
	}
	if i.closed.Load() {
		return nil, errClosed
	}
	i.http.mu.Lock()
	defer i.http.mu.Unlock()
	if i.http.allocated+n > i.opts.HTTPWorkers {
		return nil, fmt.Errorf("capi: %d request contexts requested, %d of %d remaining (RunOptions.HTTPWorkers)",
			n, i.opts.HTTPWorkers-i.http.allocated, i.opts.HTTPWorkers)
	}
	out := make([]*RequestContext, n)
	for k := range out {
		out[k] = &RequestContext{inst: i, rankID: i.opts.Ranks + i.http.allocated + k}
	}
	i.http.allocated += n
	return out, nil
}

// ResolveFunctionName maps a function name to its packed XRay ID: the ID
// the build gave the function, when the runtime resolved that ID to the
// same name. A hidden DSO function resolves to nothing; its ID is reachable
// through the session's static IDs only (Session.AttachStaticIDs).
func (i *Instance) ResolveFunctionName(name string) (int32, bool) {
	if rf := i.rt.ByName(name); rf != nil {
		return rf.PackedID, true
	}
	return 0, false
}

// FunctionActive reports whether the function is in the current
// selection. False for unknown IDs.
func (i *Instance) FunctionActive(id int32) bool {
	return i.rt.Active(id)
}

// RegisterHTTPEndpoint declares one served endpoint and the packed IDs of
// its instrumented call tree; on an SLO-adaptive instance they scope the
// endpoint's ladder. Re-registering a name, even while it serves, replaces
// the function set but keeps the accumulated latency accounting.
func (i *Instance) RegisterHTTPEndpoint(name string, funcIDs []int32) {
	i.http.mu.Lock()
	defer i.http.mu.Unlock()
	if i.http.endpoints == nil {
		i.http.endpoints = map[string]*httpEndpoint{}
	}
	ep, ok := i.http.endpoints[name]
	if !ok {
		ep = &httpEndpoint{Endpoint: adapt.NewEndpoint(name)}
		i.http.endpoints[name] = ep
	}
	ep.SetFuncIDs(funcIDs)
}

// ObserveHTTPRequest records one completed request's latency for a
// registered endpoint and, on an SLO-adaptive instance, feeds it to the
// controller as the tail-latency signal. Unregistered endpoints are
// ignored. Safe for concurrent use.
func (i *Instance) ObserveHTTPRequest(endpoint string, latencyNs int64) {
	i.http.mu.Lock()
	ep := i.http.endpoints[endpoint]
	i.http.mu.Unlock()
	if ep == nil {
		return
	}
	ep.Record(latencyNs)
	ep.sumNs.Add(latencyNs)
	slot := sort.Search(len(httpBucketBoundsNs), func(k int) bool { return latencyNs <= httpBucketBoundsNs[k] })
	if slot < len(httpBucketBoundsNs) {
		ep.buckets[slot].Add(1)
	}
	if i.ctrl != nil {
		i.ctrl.ObserveRequest(ep.Endpoint)
	}
}

// HTTPBucket is one cumulative histogram bucket (requests with latency
// ≤ LeMs).
type HTTPBucket struct {
	LeMs  float64 `json:"leMs"`
	Count int64   `json:"count"`
}

// HTTPEndpointStatus is one endpoint's request/latency view: totals, the
// cumulative histogram (the implicit +Inf bucket is Requests), recent
// p50/p99, and how much of the endpoint's call tree is still
// instrumented — the coverage the SLO ladder trades against latency.
type HTTPEndpointStatus struct {
	Endpoint string  `json:"endpoint"`
	Requests int64   `json:"requests"`
	SumMs    float64 `json:"sumMs"`
	// P50Ms and P99Ms are computed over the recent-latency window (up to
	// the last 1024 requests), not the full history.
	P50Ms   float64      `json:"p50Ms"`
	P99Ms   float64      `json:"p99Ms"`
	Buckets []HTTPBucket `json:"buckets"`
	// TotalFunctions is the size of the endpoint's registered call tree;
	// ActiveFunctions how many are currently selected; DemotedFunctions
	// how many of those run at a reduced sampling stride.
	TotalFunctions   int `json:"totalFunctions"`
	ActiveFunctions  int `json:"activeFunctions"`
	DemotedFunctions int `json:"demotedFunctions"`
}

// HTTPStatus is the middleware's instance-wide snapshot, served on
// /v1/status and exported as capi_http_* Prometheus series.
type HTTPStatus struct {
	Workers   int                  `json:"workers"`
	Requests  int64                `json:"requests"`
	Endpoints []HTTPEndpointStatus `json:"endpoints"`
}

// httpSnapshot returns the per-endpoint request/latency view and the
// endpoint records it read, both in name order, or nil when no endpoint was
// ever registered (no middleware attached).
func (i *Instance) httpSnapshot() (*HTTPStatus, []*adapt.Endpoint) {
	i.http.mu.Lock()
	eps := make([]*httpEndpoint, 0, len(i.http.endpoints))
	for _, ep := range i.http.endpoints {
		eps = append(eps, ep)
	}
	workers := i.http.allocated
	i.http.mu.Unlock()
	if len(eps) == 0 {
		return nil, nil
	}
	sort.Slice(eps, func(a, b int) bool { return eps[a].Name < eps[b].Name })
	out := &HTTPStatus{Workers: workers}
	records := make([]*adapt.Endpoint, 0, len(eps))
	for _, ep := range eps {
		records = append(records, ep.Endpoint)
		row := HTTPEndpointStatus{Endpoint: ep.Name, Requests: ep.Requests()}
		row.SumMs = float64(ep.sumNs.Load()) / 1e6
		var cum int64
		for k, bound := range httpBucketBoundsNs {
			cum += ep.buckets[k].Load()
			row.Buckets = append(row.Buckets, HTTPBucket{LeMs: float64(bound) / 1e6, Count: cum})
		}
		if window := ep.Window(adapt.EndpointWindow); len(window) > 0 {
			row.P50Ms = float64(adapt.Quantile(window, 0.50)) / 1e6
			row.P99Ms = float64(adapt.Quantile(window, 0.99)) / 1e6
		}
		ids := ep.FuncIDs()
		row.TotalFunctions = len(ids)
		for _, id := range ids {
			if !i.FunctionActive(id) {
				continue
			}
			row.ActiveFunctions++
			// A stride above 1 is the adapt ladder's demotion to sampling.
			if i.rt.FuncStride(id) > 1 {
				row.DemotedFunctions++
			}
		}
		out.Requests += row.Requests
		out.Endpoints = append(out.Endpoints, row)
	}
	return out, records
}
