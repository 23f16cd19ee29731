package ctl

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	capi "capi"
	"capi/internal/dyncapi"
)

// goldenStatus is a status document with every optional section populated
// — HTTP endpoints, SLO, breaker, sampling, TTL, synthetic exits — and
// values that exercise each number format (large counters, small and large
// floats, a label that needs quoting).
func goldenStatus() StatusResponse {
	buckets := func(counts ...int64) []capi.HTTPBucket {
		les := []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}
		out := make([]capi.HTTPBucket, len(les))
		for i, le := range les {
			out[i] = capi.HTTPBucket{LeMs: le, Count: counts[i]}
		}
		return out
	}
	return StatusResponse{
		App:           "webservice",
		HTTPSelects:   7,
		UptimeSeconds: 12.5,
		SSEClients:    2,
		SessionBuild:  capi.BuildStats{ValidateSeconds: 0.0042, CallGraphSeconds: 0.031, CompileSeconds: 0.024, TotalSeconds: 0.0365},
		InstanceStatus: capi.InstanceStatus{
			Backends:       []string{"talp", "extrae"},
			Ranks:          4,
			Adaptive:       true,
			Runs:           3,
			Running:        true,
			Events:         12345678901,
			PendingSeconds: 0.25,
			Snapshot: dyncapi.Snapshot{
				ActiveFunctions:         41,
				Patched:                 10337,
				Reconfigs:               9,
				InitSeconds:             0.000123,
				ReconfigSeconds:         1.5e-05,
				DroppedInFlight:         17,
				DroppedUnpatched:        3,
				SyntheticExits:          6,
				SyntheticExitsByBackend: map[string]int64{"talp": 2, "extrae": 4},
				Async:                   true,
				PipelineDepth:           128,
				DroppedAsync:            5,
				AsyncBuf:                4096,
				Sampling: &capi.SamplingSnapshot{
					Configured:   true,
					Default:      &capi.SamplingPolicy{Stride: 8},
					FuncPolicies: 2,
					Counters: capi.SamplingCounters{
						Enters:          1000000,
						Delivered:       125000,
						SampledEvents:   870000,
						SuppressedPairs: 4000,
						SuppressedNs:    9876543210,
						CollapsedCalls:  1000,
						CollapsedNs:     55555,
					},
				},
			},
			DroppedPanicked:  40,
			DetachedBackends: []string{"flaky"},
			Breaker: []capi.BreakerStatus{
				{Backend: "flaky", Panics: 3, DroppedPanicked: 40, Tripped: true, LastPanic: "boom"},
				{Backend: "extrae", Panics: 1},
			},
			TTL: capi.TTLStatus{SelectPending: true, SelectRemainingSeconds: 1.5, Scheduled: 4, Expired: 2, Canceled: 1},
			HTTP: &capi.HTTPStatus{
				Workers:  3,
				Requests: 1300,
				Endpoints: []capi.HTTPEndpointStatus{
					{
						Endpoint: "GET /feed", Requests: 1000, SumMs: 1.2345678e+06, P50Ms: 2.25, P99Ms: 48.5,
						Buckets:        buckets(10, 200, 600, 800, 900, 950, 990, 995, 998, 999, 1000),
						TotalFunctions: 16, ActiveFunctions: 13, DemotedFunctions: 2,
					},
					{
						Endpoint: `say "hi"`, Requests: 300, SumMs: 0.00042, P50Ms: 0.1, P99Ms: 0.4,
						Buckets:        buckets(300, 300, 300, 300, 300, 300, 300, 300, 300, 300, 300),
						TotalFunctions: 4, ActiveFunctions: 4,
					},
				},
			},
			SLO: &capi.SLOStatus{
				TargetP99Ms: 5,
				Window:      512,
				MinSamples:  64,
				Endpoints: []capi.SLOEndpoint{
					{Endpoint: "GET /feed", Requests: 1000, P99Ms: 48.5, Steps: 3, Demoted: []string{"a", "b"}, Dropped: []string{"c"}},
					{Endpoint: `say "hi"`, Requests: 300, P99Ms: 0.4, Met: true},
				},
			},
		},
	}
}

// TestMetricsGolden pins the member exposition byte for byte:
// testdata/metrics.golden is what the hand-rolled handler this writer
// replaced printed for goldenStatus, and CI's serve-smoke greps exact lines
// of it.
func TestMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	st := goldenStatus()
	var e Exposition
	e.Status("", &st)
	var got bytes.Buffer
	e.Write(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from testdata/metrics.golden\n--- got ---\n%s", got.String())
	}
}

// TestSessionBuildSeries: the session's own build times reach /v1/status and
// /metrics through the one read model — the status document carries what
// Session.BuildStats says, and the exposition renders exactly that.
func TestSessionBuildSeries(t *testing.T) {
	session, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	srv := New(session, inst, "quickstart")
	defer srv.Shutdown()

	bs := session.BuildStats()
	if bs.TotalSeconds <= 0 || bs.ValidateSeconds <= 0 || bs.CallGraphSeconds <= 0 || bs.CompileSeconds <= 0 {
		t.Fatalf("a stage took no time: %+v", bs)
	}
	if longest := max(bs.CallGraphSeconds, bs.CompileSeconds); bs.TotalSeconds < bs.ValidateSeconds+longest {
		t.Errorf("total %v is less than validate + the longer parallel stage: %+v", bs.TotalSeconds, bs)
	}
	st := srv.status()
	if st.SessionBuild != bs {
		t.Fatalf("status carries %+v, session says %+v", st.SessionBuild, bs)
	}
	var e Exposition
	e.Status("m0", &st)
	var got bytes.Buffer
	e.Write(&got)
	for stage, v := range map[string]float64{
		"validate": bs.ValidateSeconds, "callgraph": bs.CallGraphSeconds,
		"compile": bs.CompileSeconds, "total": bs.TotalSeconds,
	} {
		want := fmt.Sprintf("capi_session_build_seconds{member=\"m0\",stage=%q} %v\n", stage, v)
		if !bytes.Contains(got.Bytes(), []byte(want)) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
