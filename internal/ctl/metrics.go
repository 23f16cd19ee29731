package ctl

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// The metrics read model. StatusResponse is the one document that says
// what an instance is doing; Exposition.Status derives every /metrics line
// from it, and Exposition is the only code that knows the Prometheus text
// format. A member renders its own status, the fleet coordinator the
// /v1/status documents of its members next to its own series.

// Exposition collects samples into metric families and renders them in the
// text format 0.0.4: families in first-use order, each with one HELP and
// one TYPE line above its samples, however many documents contributed. The
// zero value is ready to use.
type Exposition struct {
	families []*family
	byName   map[string]*family
	// member, while Status runs, is the first label of every sample.
	member string
}

type family struct {
	name, typ, help string
	samples         strings.Builder
}

// Gauge adds one gauge sample; labels are name, value pairs.
func (e *Exposition) Gauge(name, help string, v any, labels ...string) {
	e.add(name, "gauge", help, "", v, labels)
}

// Counter adds one counter sample; labels are name, value pairs.
func (e *Exposition) Counter(name, help string, v any, labels ...string) {
	e.add(name, "counter", help, "", v, labels)
}

// add appends the sample name+suffix{labels} v to the family called name.
// v is an int, int64 or float64.
func (e *Exposition) add(name, typ, help, suffix string, v any, labels []string) {
	f := e.byName[name]
	if f == nil {
		if e.byName == nil {
			e.byName = map[string]*family{}
		}
		f = &family{name: name, typ: typ, help: help}
		e.byName[name] = f
		e.families = append(e.families, f)
	}
	f.samples.WriteString(name + suffix)
	sep := "{"
	if e.member != "" {
		fmt.Fprintf(&f.samples, "{member=%q", e.member)
		sep = ","
	}
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&f.samples, "%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if sep == "," {
		f.samples.WriteByte('}')
	}
	fmt.Fprintf(&f.samples, " %v\n", v)
}

// Write renders the collected families.
func (e *Exposition) Write(w io.Writer) {
	for _, f := range e.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.typ, f.samples.String()) //nolint:errcheck // client gone
	}
}

func flag(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Status adds the series of one status document — the status→series
// mapping. A non-empty member becomes the first label of every sample,
// which is how the coordinator tells its members' series apart. Series of
// an absent section are left out: the per-backend ones until a backend
// closed an exit or panicked, capi_http_* until the middleware registered
// an endpoint, capi_slo_* outside tail-latency mode.
func (e *Exposition) Status(member string, st *StatusResponse) {
	e.member = member
	defer func() { e.member = "" }()
	e.Gauge("capi_active_functions", "Current selection size.", st.ActiveFunctions)
	e.Gauge("capi_patched_functions", "Functions patched at DynCaPI start-up.", st.Patched)
	e.Gauge("capi_running", "1 while a phase is executing.", flag(st.Running))
	e.Counter("capi_reconfigs_total", "Live re-selections applied (HTTP, in-process and controller).", st.Reconfigs)
	e.Counter("capi_http_selects_total", "Re-selections applied through POST /v1/select.", st.HTTPSelects)
	e.Counter("capi_runs_total", "Completed phases.", st.Runs)
	e.Counter("capi_events_total", "Instrumentation events dispatched across completed phases.", st.Events)
	const droppedHelp = "Events dropped outside the active selection."
	e.Counter("capi_dropped_events_total", droppedHelp, st.DroppedInFlight, "class", "in_flight")
	e.Counter("capi_dropped_events_total", droppedHelp, st.DroppedUnpatched, "class", "unpatched")
	e.Counter("capi_synthetic_exits_total", "Dangling enters closed by the backends on deselection.", st.SyntheticExits)
	// The async gauge is static per instance, the depth breathes with the
	// consumer pool's lag, the drop counter only moves when back-pressure
	// rejects whole enter/exit pairs.
	e.Gauge("capi_pipeline_async", "1 when the asynchronous event pipeline is attached.", flag(st.Async))
	e.Gauge("capi_pipeline_depth", "Events currently queued in the async pipeline's per-rank rings.", st.PipelineDepth)
	e.Counter("capi_pipeline_dropped_total", "Enter/exit pairs rejected by async pipeline back-pressure (bounded rings).", st.DroppedAsync)
	for _, name := range slices.Sorted(maps.Keys(st.SyntheticExitsByBackend)) {
		e.Counter("capi_backend_synthetic_exits_total", "Dangling enters closed, per measurement backend.", st.SyntheticExitsByBackend[name], "backend", name)
	}
	// The default-stride gauge moves the moment a table is POSTed (before
	// any event flows), the counters as sampled phases run.
	defaultStride := 0
	if st.Sampling != nil && st.Sampling.Default != nil {
		defaultStride = st.Sampling.Default.Stride
	}
	e.Gauge("capi_sampling_default_stride", "Default 1-in-N sampling stride (0 = unsampled).", defaultStride)
	if s := st.Sampling; s != nil {
		e.Gauge("capi_sampling_func_policies", "Per-function sampling policy overrides installed.", s.FuncPolicies)
		e.Counter("capi_sampled_events_total", "Enters dropped by 1-in-N stride sampling.", s.Counters.SampledEvents)
		e.Counter("capi_suppressed_pairs_total", "Enter/exit pairs dropped by min-duration suppression.", s.Counters.SuppressedPairs)
		e.Counter("capi_suppressed_virtual_ns_total", "Virtual ns of min-duration-suppressed pairs (exact accounting).", s.Counters.SuppressedNs)
		e.Counter("capi_collapsed_calls_total", "Repeated identical short calls collapsed by redundancy suppression.", s.Counters.CollapsedCalls)
		e.Counter("capi_sampler_delivered_total", "Enters delivered through the sampler to the backend chain.", s.Counters.Delivered)
	}
	// The pending gauges flip while a TTL'd override is live, the counters
	// record the scheduler's full history.
	const pendingHelp = "1 while a TTL'd override awaits its auto-revert, per kind."
	e.Gauge("capi_ttl_pending", pendingHelp, flag(st.TTL.SelectPending), "kind", "select")
	e.Gauge("capi_ttl_pending", pendingHelp, flag(st.TTL.SamplingPending), "kind", "sampling")
	e.Counter("capi_ttl_scheduled_total", "TTL'd overrides accepted (select and sampling).", st.TTL.Scheduled)
	e.Counter("capi_ttl_expired_total", "TTL auto-reverts delivered.", st.TTL.Expired)
	e.Counter("capi_ttl_canceled_total", "Pending TTL reverts canceled by a newer explicit select/sampling call.", st.TTL.Canceled)
	// Panic barrier: totals always, the per-backend breakdown only for
	// backends that ever panicked, so label cardinality stays bounded by
	// the attached set.
	e.Counter("capi_dropped_panicked_total", "Enters swallowed by the per-backend panic barriers (panicking delivery or open breaker).", st.DroppedPanicked)
	e.Gauge("capi_detached_backends", "Backends the circuit breaker removed from the live instance.", len(st.DetachedBackends))
	for _, bs := range st.Breaker {
		e.Counter("capi_backend_panics_total", "Panics recovered in a backend's delivery paths.", bs.Panics, "backend", bs.Backend)
		e.Gauge("capi_breaker_tripped", "1 when the backend's circuit breaker is open.", flag(bs.Tripped), "backend", bs.Backend)
	}
	if st.HTTP != nil {
		e.Gauge("capi_http_workers", "Request contexts checked out by the HTTP middleware.", st.HTTP.Workers)
		for _, ep := range st.HTTP.Endpoints {
			e.Counter("capi_http_requests_total", "Requests observed per endpoint.", ep.Requests, "endpoint", ep.Endpoint)
			// Cumulative buckets; +Inf and _count are both the request total.
			const latency, latencyHelp = "capi_http_request_latency_ms", "Request latency per endpoint."
			for _, bk := range ep.Buckets {
				le := strconv.FormatFloat(bk.LeMs, 'g', -1, 64)
				e.add(latency, "histogram", latencyHelp, "_bucket", bk.Count, []string{"endpoint", ep.Endpoint, "le", le})
			}
			e.add(latency, "histogram", latencyHelp, "_bucket", ep.Requests, []string{"endpoint", ep.Endpoint, "le", "+Inf"})
			e.add(latency, "histogram", latencyHelp, "_sum", ep.SumMs, []string{"endpoint", ep.Endpoint})
			e.add(latency, "histogram", latencyHelp, "_count", ep.Requests, []string{"endpoint", ep.Endpoint})
			e.Gauge("capi_http_endpoint_active_functions", "Instrumented functions still selected in the endpoint's call tree.", ep.ActiveFunctions, "endpoint", ep.Endpoint)
			e.Gauge("capi_http_endpoint_demoted_functions", "Selected functions running at a reduced sampling stride.", ep.DemotedFunctions, "endpoint", ep.Endpoint)
		}
	}
	if st.SLO != nil {
		e.Gauge("capi_slo_target_p99_ms", "Tail-latency SLO target the controller narrows toward (0 = budget mode).", st.SLO.TargetP99Ms)
		for _, ep := range st.SLO.Endpoints {
			e.Gauge("capi_slo_met", "1 when the endpoint's recent p99 meets the SLO target.", flag(ep.Met), "endpoint", ep.Endpoint)
			e.Gauge("capi_slo_p99_ms", "Endpoint p99 over the controller's recent-latency window.", ep.P99Ms, "endpoint", ep.Endpoint)
			e.Gauge("capi_slo_ladder_steps", "Demote/deselect steps the controller currently holds for the endpoint.", ep.Steps, "endpoint", ep.Endpoint)
		}
	}
	e.Gauge("capi_attached_backends", "Measurement backends attached to the instance.", len(st.Backends))
	e.Gauge("capi_init_virtual_seconds", "DynCaPI start-up time (T_init), virtual.", st.InitSeconds)
	e.Counter("capi_reconfig_virtual_seconds_total", "Accumulated virtual re-patch cost of live re-selections.", st.ReconfigSeconds)
	e.Gauge("capi_sse_clients", "Connected /v1/events subscribers.", st.SSEClients)
	// The tool times itself: call graph and compile overlap, so total is
	// less than the sum of the stages.
	const buildHelp = "Wall-clock seconds the session build took, per stage."
	e.Gauge("capi_session_build_seconds", buildHelp, st.SessionBuild.ValidateSeconds, "stage", "validate")
	e.Gauge("capi_session_build_seconds", buildHelp, st.SessionBuild.CallGraphSeconds, "stage", "callgraph")
	e.Gauge("capi_session_build_seconds", buildHelp, st.SessionBuild.CompileSeconds, "stage", "compile")
	e.Gauge("capi_session_build_seconds", buildHelp, st.SessionBuild.TotalSeconds, "stage", "total")
}
