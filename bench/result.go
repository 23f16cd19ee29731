package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json carries the
// same lists (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Help   string
}

// endToEnd lists what a user of the system would see. Every workload
// reports every one of them; what each name binds to on each workload is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "wall time before the first timed trial: session build, Select, Start, servers up, stream generation"},
	{"app_ns_per_event", "ns", "lower", "wall time the dispatching thread spends inside Enter/Exit per event"},
	{"throughput_per_s", "1/s", "higher", "work completed per second, drain-inclusive: delivered events, requests, or control operations"},
	{"latency_p50_us", "us", "lower", "median latency of the workload's operation: event batch, request, select, fan-out"},
	{"peak_rss_mb", "MB", "lower", "VmHWM of the bench process at workload end"},
}

// perLayer lists the metrics of single layers, which only the traced run
// reports. A layer the workload does not pass through did no work on it and
// reads 0. The rungs of the ladder (runLadder) do not depend on the workload.
var perLayer = []metricDef{
	// the dispatch ladder
	{"xray.dispatch_nil_ns", "ns", "lower", "xray.Runtime.Dispatch with no handler set"},
	{"dyncapi.lookup_ws4_ns", "ns", "lower", "unguarded runtime + discarding backend over 4 IDs, minus the rung beneath"},
	{"dyncapi.lookup_ws4096_ns", "ns", "lower", "the same over 4,096 IDs"},
	{"dyncapi.miss_ns", "ns", "lower", "dispatch at known but deselected IDs after a Reconfigure, minus the nil rung"},
	{"dyncapi.dropped_inflight", "count", "lower", "exact: events the miss rung counted as dropped in flight"},
	{"dyncapi.sampler_stride_ns", "ns", "lower", "default stride-64 policy, minus the lookup rung"},
	{"dyncapi.sampler_suppress_ns", "ns", "lower", "default min-duration policy, minus the lookup rung"},
	{"dyncapi.guard_ns", "ns", "lower", "NewGuard(discard) minus discard"},
	{"dyncapi.mux1_ns", "ns", "lower", "NewMux(extrae) minus extrae"},
	{"trace.extrae_ns", "ns", "lower", "OnEnter/OnExit straight on the extrae backend"},
	{"talp.talp_ns", "ns", "lower", "OnEnter/OnExit straight on the TALP backend"},
	{"scorep.scorep_ns", "ns", "lower", "OnEnter/OnExit straight on the Score-P backend"},
	{"dyncapi.scaling_eff", "ratio", "higher", "P-producer events/s over P x 1-producer events/s, inline, discarding"},
	{"pipeline.append_ns", "ns", "lower", "ring append of a burst within capacity, consumer held, zero drops"},
	{"pipeline.replay_ns", "ns", "lower", "drain of that burst per event, minus trace.extrae_ns"},
	{"pipeline.wake_us", "us", "lower", "one pair appended to an idle ring until DrainPipeline returns"},
	// the control ladder
	{"core.select_ms", "ms", "lower", "Session.Select of builtin kernels / mpi alone"},
	{"capi.reconfigure_ms", "ms", "lower", "Instance.Reconfigure kernels <-> mpi alone"},
	{"reconfig.patched_sleds", "count", "lower", "exact, one there-and-back"},
	{"reconfig.unpatched_sleds", "count", "lower", "exact, one there-and-back"},
	{"reconfig.mprotect_calls", "count", "lower", "exact, one there-and-back"},
	{"reconfig.synthetic_exits", "count", "lower", "exact, one there-and-back"},
	{"xray.patch_ns_per_func", "ns", "lower", "PatchBatch patch + unpatch of all 10,337 functions, per function"},
	{"ctl.select_overhead_ms", "ms", "lower", "POST /v1/select handler through a ResponseRecorder, minus Select and Reconfigure"},
	{"ctl.status_us", "us", "lower", "GET /v1/status handler, no socket"},
	{"ctl.metrics_us", "us", "lower", "GET /metrics handler, no socket"},
	{"ctl.selection_us", "us", "lower", "GET /v1/selection handler, no socket"},
	{"capi.start_ms", "ms", "lower", "Session.Start alone"},
	{"capi.set_sampling_us", "us", "lower", "Instance.SetSampling alone"},
	{"capi.set_backends_ms", "ms", "lower", "Instance.SetBackends talp <-> extrae alone"},
	{"setup.session_s", "s", "lower", "NewAppSession(openfoam, 0.1) alone"},
	// measured inside a workload; 0 on a workload that bypasses the layer
	{"latency.tail_us", "us", "lower", "every workload: tail of latency_p50_us's operation, at the highest percentile with ten samples beyond it (p99; p95 of selects and fan-outs)"},
	{"pipeline.drain_wait_ms", "ms", "lower", "dispatch_async: DrainPipeline at the end of the paced stage"},
	{"pipeline.dropped_pairs", "count", "lower", "dispatch_async: pairs dropped in the paced stage"},
	{"pipeline.saturate_drop_frac", "ratio", "lower", "dispatch_async: share of pairs dropped in the saturate stage"},
	{"nethttp.roundtrip_us", "us", "lower", "serve_http: client round trip minus the handler-wrapper span"},
	{"middleware.handler_us", "us", "lower", "serve_http: handler-wrapper span minus Service.Do"},
	{"middleware.do_us", "us", "lower", "serve_http: Service.Do per request, in process"},
	{"middleware.events_per_req", "count", "lower", "serve_http: exact events per request of the route sequence"},
	{"middleware.dispatch_share", "ratio", "lower", "serve_http: events_per_req x inline extrae rung over do_us"},
	{"serve.p50_at_2000_us", "us", "lower", "serve_http: open loop at 2,000 req/s, p50 from the due time"},
	{"serve.p99_at_1000_us", "us", "lower", "serve_http: open loop at 1,000 req/s, p99 from the due time"},
	{"serve.p99_at_2000_us", "us", "lower", "serve_http: open loop at 2,000 req/s, p99 from the due time"},
	{"serve.p99_at_4000_us", "us", "lower", "serve_http: open loop at 4,000 req/s, p99 from the due time"},
	{"serve.req_p999_us", "us", "lower", "serve_http: open loop at 2,000 req/s, p99.9 from the due time"},
	{"serve.late_frac", "ratio", "lower", "serve_http: share of requests the generator wrote over 1 ms late, at 2,000 req/s"},
	{"serve.invalid_trials", "count", "lower", "serve_http: open-loop trials that were late twice"},
	{"serve.max_rate_in_limit", "1/s", "higher", "serve_http: highest of the three rates with p99 <= 2 ms and late_frac <= 1 %"},
	{"ctl.scrape_p50_ms", "ms", "lower", "control_plane: median over the three read endpoints"},
	{"ctl.select_handler_ms", "ms", "lower", "control_plane: handler-wrapper span of POST /v1/select"},
	{"fleet.fanout_overhead_ms", "ms", "lower", "fleet_fanout: coordinator round trip minus the slowest member handler span"},
	{"fleet.member_span_max_ms", "ms", "lower", "fleet_fanout: slowest member handler span of a select fan-out"},
	{"fleet.attempts_per_fanout", "count", "lower", "fleet_fanout: exact member attempts per select fan-out"},
	{"fleet.sampling_fanout_ms", "ms", "lower", "fleet_fanout: POST /v1/sampling fan-out"},
	{"fleet.metrics_merge_ms", "ms", "lower", "fleet_fanout: GET /metrics merge"},
	{"fleet.status_ms", "ms", "lower", "fleet_fanout: GET /v1/fleet/status"},
	{"trace.overhead_frac", "ratio", "lower", "traced latency_p50_us over untraced, minus 1"},
}

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds float64 // timed budget of the workload
	short   bool    // ~1/20 size, nothing asserted about time
	tr      *tracer // nil: untraced
	layers  bool    // also measure what only the per-layer report needs
	rigs    int     // how many set-ups share the budget (0 counts as 1)
}

// budget is a stage's share of the timed budget on one rig.
func (c *config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share / float64(max(c.rigs, 1)) * float64(time.Second))
}

// floor is the least number of trials of a stage on one rig: minTrials over
// all rigs of the run (three in short mode, where nothing is timed).
func (c *config) floor() int {
	if c.short {
		return 3
	}
	return (minTrials + max(c.rigs, 1) - 1) / max(c.rigs, 1)
}

// scaled shrinks a fixed-work size for the smoke test.
func (c *config) scaled(n int) int {
	if c.short {
		return max(n/20, 1)
	}
	return n
}

// result collects one workload run. The workloads add trial values with e2e
// and layer, from every rig of the run, and what is reported is the median,
// min and IQR over all of them. The ladder sets Layers directly.
type result struct {
	Workload  string          `json:"workload"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	EndToEnd  map[string]dist `json:"endToEnd"`
	Layers    map[string]dist `json:"layers"`
	Notes     map[string]any  `json:"notes,omitempty"`

	trials map[string][]float64 // by metric name, end-to-end and per-layer
}

func newResult(name string) *result {
	return &result{Workload: name, EndToEnd: map[string]dist{}, Layers: map[string]dist{}, Notes: map[string]any{}, trials: map[string][]float64{}}
}

func (r *result) e2e(name string, trials ...float64) {
	r.trials[name] = append(r.trials[name], trials...)
	r.EndToEnd[name] = summarize(r.trials[name])
}

func (r *result) layer(name string, trials ...float64) {
	r.trials[name] = append(r.trials[name], trials...)
	r.Layers[name] = summarize(r.trials[name])
}

// pooled adds samples to a pool that lasts over the rigs of the run and
// returns the whole pool, sorted: a tail percentile needs all of them.
func (r *result) pooled(name string, samples ...float64) []float64 {
	r.trials[name] = append(r.trials[name], samples...)
	out := append([]float64(nil), r.trials[name]...)
	sort.Float64s(out)
	return out
}

// check is the output oracle: a failed check is recorded with its numbers
// and fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

// rig is one workload, set up and ready to be timed.
type rig interface {
	run(c *config, r *result) error
	close()
}

type workload struct {
	name  string
	why   string
	setup func(c *config) (rig, error)
}

// A run sets its workload up measuredRigs times and gives each rig a third
// of the timed budget; the trials of all three are reduced together. Where
// objects land in memory differs from one set-up to the next and moves the
// cost per event by 10 % and more (noise.md), so one run should not be one
// throw of that dice. setup_s is the median over the set-ups; a set-up of
// milliseconds is repeated, unmeasured, until the set-ups have taken setupFor
// together (at most maxSetupReps), because a median of three such is not
// steady.
const (
	measuredRigs = 3
	maxSetupReps = 15
	setupFor     = time.Second
)

func runWorkload(w workload, c *config) (*result, error) {
	r := newResult(w.name)
	cfg := *c
	cfg.rigs = measuredRigs
	if c.short || c.tr != nil || c.layers {
		cfg.rigs = 1
	}
	var (
		times []float64
		total time.Duration
	)
	for i := 0; i < cfg.rigs || (cfg.rigs > 1 && total < setupFor && i < maxSetupReps); i++ {
		t0 := time.Now()
		g, err := w.setup(&cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		total += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
		if i < cfg.rigs {
			err = g.run(&cfg, r)
		}
		g.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runtime.GC()
	}
	r.e2e("setup_s", times...)
	r.e2e("peak_rss_mb", peakRSSMB())
	return r, nil
}
