package ctl_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/middleware"
)

const wideSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

const narrowSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
coarse(subtract(%mpi_comm, %excluded))
`

// newServer starts a control-plane server over a freshly started instance.
func newServer(t *testing.T, p *capi.Program, app string, opts capi.RunOptions) (*httptest.Server, *capi.Session, *capi.Instance) {
	t.Helper()
	session, err := capi.NewSession(p, capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := session.Select(wideSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ctl.New(session, inst, app))
	t.Cleanup(ts.Close)
	return ts, session, inst
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body) //nolint:errcheck
	return resp, raw.Bytes()
}

// errorField decodes a {"error": ..., "field": ...} error body and returns
// the named field — every 400 a client can fix by editing one request
// field must carry one.
func errorField(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v in %s", err, body)
	}
	if e.Error == "" {
		t.Fatalf("error body without error message: %s", body)
	}
	return e.Field
}

var reconfigsTotalRe = regexp.MustCompile(`(?m)^capi_reconfigs_total (\d+)$`)

func scrapeReconfigs(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body) //nolint:errcheck
	m := reconfigsTotalRe.FindSubmatch(raw.Bytes())
	if m == nil {
		t.Fatalf("capi_reconfigs_total missing from:\n%s", raw.String())
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStatusAndSelection(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.App != "quickstart" || st.Patched == 0 || len(st.Backends) != 1 || st.Backends[0] != "talp" || st.Ranks != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.ActiveFunctions != inst.Status().ActiveFunctions || st.ActiveFunctions == 0 {
		t.Fatalf("active = %d, instance says %d", st.ActiveFunctions, inst.Status().ActiveFunctions)
	}
	var sel ctl.SelectionResponse
	getJSON(t, ts.URL+"/v1/selection", &sel)
	if sel.Count != st.ActiveFunctions || len(sel.Functions) != sel.Count {
		t.Fatalf("selection = %+v, want %d functions", sel, st.ActiveFunctions)
	}
}

func TestSelectMalformedSpecReturns400WithParseError(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	resp, err := http.Post(ts.URL+"/v1/select", "text/plain",
		strings.NewReader("this = is(not a valid((( spec"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body) //nolint:errcheck
	if !strings.Contains(raw.String(), "compiling spec") {
		t.Fatalf("body does not carry the compile error: %s", raw.String())
	}
	// An empty body is also a 400, with a distinct message.
	resp2, body2 := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{})
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body2), "empty selection") {
		t.Fatalf("empty select: %d %s", resp2.StatusCode, body2)
	}
}

func TestSelectByIncludeListAndBuiltin(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	names := inst.ActiveFunctionNames()
	if len(names) < 3 {
		t.Fatalf("too few active functions: %v", names)
	}
	resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Include: names[:3]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("include select: %d %s", resp.StatusCode, body)
	}
	var sr ctl.SelectResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Active != 3 || inst.Status().ActiveFunctions != 3 {
		t.Fatalf("active = %d (instance %d), want 3", sr.Active, inst.Status().ActiveFunctions)
	}
	if sr.Report.Seq != 1 {
		t.Fatalf("report seq = %d", sr.Report.Seq)
	}
	// Builtin name → compiled spec, selection summary included.
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Builtin: "mpi"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("builtin select: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Selection == nil || sr.Selection.Selected == 0 {
		t.Fatalf("builtin select carries no selection summary: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Builtin: "no-such-spec"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown builtin: %d %s", resp.StatusCode, body)
	}
	// A typo'd include name must be rejected, not silently unpatch the
	// whole selection.
	resp, body = postJSON(t, ts.URL+"/v1/select",
		ctl.SelectRequest{Include: []string{names[0], "no_such_function"}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no_such_function") {
		t.Fatalf("typo'd include: %d %s", resp.StatusCode, body)
	}
	if got := inst.Status().ActiveFunctions; got == 0 {
		t.Fatal("typo'd include wiped the selection")
	}
}

func TestRunPhaseAndReport(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	resp, body := postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	var sum ctl.RunSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Phase != 1 || sum.Events == 0 || sum.InitSeconds <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	var rep ctl.ReportResponse
	getJSON(t, ts.URL+"/v1/report", &rep)
	if len(rep.Backends) != 1 || rep.Backends[0] != "talp" {
		t.Fatalf("report = %+v", rep)
	}
	entry, ok := rep.Reports["talp"]
	if !ok || entry.Kind != "talp" || !bytes.Contains(entry.Report, []byte("regions")) {
		t.Fatalf("talp entry = %+v (reports %v)", entry, rep.Reports)
	}
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Runs != 1 || st.LastRun == nil || st.LastRun.Events != sum.Events {
		t.Fatalf("status after run = %+v", st)
	}
}

func TestAdaptRetuneOverHTTP(t *testing.T) {
	// Without a controller: 409.
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	resp, body := postJSON(t, ts.URL+"/v1/adapt", ctl.AdaptRequest{Budget: 0.2})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("adapt without controller: %d %s", resp.StatusCode, body)
	}
	// With one: the retune round-trips.
	ts2, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Adapt: &capi.AdaptOptions{Budget: 0.05}})
	resp, body = postJSON(t, ts2.URL+"/v1/adapt", ctl.AdaptRequest{Budget: 0.2, EpochSeconds: 0.002})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt: %d %s", resp.StatusCode, body)
	}
	var ar ctl.AdaptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Budget != 0.2 || ar.EpochSeconds != 0.002 {
		t.Fatalf("effective tuning = %+v", ar)
	}
}

// TestAdaptRejectsOversizeSLOWindow: the SLO window sizes a per-endpoint
// allocation, so a window past /v1/status's own 1024-request latency window
// is refused — by Start, and by POST /v1/adapt with a 400 that names the
// field and applies nothing — and the next request still completes.
func TestAdaptRejectsOversizeSLOWindow(t *testing.T) {
	session, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := capi.RunOptions{PatchAll: true, Ranks: 1, HTTPWorkers: 1,
		Adapt: &capi.AdaptOptions{SLOTargetP99Ns: int64(5 * time.Millisecond), SLOWindow: 1025}}
	if _, err := session.Start(nil, opts); err == nil {
		t.Fatal("Start accepted SLOWindow 1025")
	}
	opts.Adapt.SLOWindow = 0
	inst, err := session.Start(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ctl.New(session, inst, "webservice"))
	t.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(1))
	if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/adapt", ctl.AdaptRequest{SLOWindow: 1 << 62})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize sloWindow: %d %s, want 400", resp.StatusCode, body)
	}
	if f := errorField(t, body); f != "sloWindow" {
		t.Fatalf("error field %q, want sloWindow", f)
	}
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.SLO == nil || st.SLO.Window != 256 {
		t.Fatalf("SLO status after the rejected retune = %+v, want window 256", st.SLO)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Do(svc.RandomRoute(rng))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the request after the rejected retune did not complete")
	}
}

// TestRemoteReselectionMidPhase is the end-to-end acceptance test: a phase
// executes on the live instance while a narrower selection arrives over
// HTTP. The response must carry the ReconfigReport, the active set must
// shrink, and /metrics must reflect the advanced reconfig counter.
func TestRemoteReselectionMidPhase(t *testing.T) {
	// Enough timesteps that the phase is still executing when the select
	// lands (the delta assertions hold either way — whether genuine overlap
	// was achieved is detected below and gates the mid-phase assertion).
	ts, _, inst := newServer(t, capi.Lulesh(capi.LuleshOptions{Timesteps: 12000}), "lulesh",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	activeBefore := inst.Status().ActiveFunctions
	if before := scrapeReconfigs(t, ts.URL); before != 0 {
		t.Fatalf("fresh instance reports %d reconfigs", before)
	}

	wait := false
	resp, body := postJSON(t, ts.URL+"/v1/run", ctl.RunRequest{Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: %d %s", resp.StatusCode, body)
	}
	// A second run while one executes is rejected.
	resp, body = postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent run: %d %s", resp.StatusCode, body)
	}

	// Wait until the phase is observably executing, then re-select.
	for i := 0; i < 200; i++ {
		var st ctl.StatusResponse
		getJSON(t, ts.URL+"/v1/status", &st)
		if st.Running || st.Runs > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: narrowSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, body)
	}
	var sr ctl.SelectResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// (a) the response carries the reconfiguration report…
	if sr.Report.Seq != 1 || sr.Report.Unpatched == 0 {
		t.Fatalf("reconfig report = %+v", sr.Report)
	}
	// (b) …the active set shrank…
	if sr.Active >= activeBefore || inst.Status().ActiveFunctions != sr.Active {
		t.Fatalf("active %d (was %d), instance says %d", sr.Active, activeBefore, inst.Status().ActiveFunctions)
	}
	// (c) …and /metrics reflects the new reconfig count.
	if got := scrapeReconfigs(t, ts.URL); got != 1 {
		t.Fatalf("capi_reconfigs_total = %d, want 1", got)
	}
	// If the phase is still executing now, the re-selection provably landed
	// mid-phase, so the phase's own result must report it.
	var mid ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &mid)
	overlapped := mid.Running

	// Let the phase drain and check the run was recorded. LastRun lags the
	// runs counter by an instant, so poll for the summary itself.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st ctl.StatusResponse
		getJSON(t, ts.URL+"/v1/status", &st)
		if st.LastError != "" {
			t.Fatalf("phase failed: %s", st.LastError)
		}
		if !st.Running && st.LastRun != nil {
			if st.Runs != 1 {
				t.Fatalf("runs = %d after one phase", st.Runs)
			}
			if overlapped && st.LastRun.Reconfigs != 1 {
				t.Fatalf("mid-phase reconfigure not visible in phase result: %+v", st.LastRun)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !overlapped {
		t.Log("note: phase finished before the select landed; delta path still verified")
	}
}

// TestMultiBackendReportEnvelope: one run with talp+extrae attached must
// produce the unified envelope with both keys, each entry self-describing
// its kind.
func TestMultiBackendReportEnvelope(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp", "extrae"}, Ranks: 2})
	resp, body := postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	var rep ctl.ReportResponse
	getJSON(t, ts.URL+"/v1/report", &rep)
	if len(rep.Backends) != 2 || rep.Backends[0] != "talp" || rep.Backends[1] != "extrae" {
		t.Fatalf("report backends = %v", rep.Backends)
	}
	talpEntry, ok := rep.Reports["talp"]
	if !ok || talpEntry.Kind != "talp" || !bytes.Contains(talpEntry.Report, []byte("regions")) {
		t.Fatalf("talp entry = %+v", talpEntry)
	}
	traceEntry, ok := rep.Reports["extrae"]
	if !ok || traceEntry.Kind != "trace" || !bytes.Contains(traceEntry.Report, []byte("Timeline")) {
		t.Fatalf("extrae entry = %+v", traceEntry)
	}
	// Both backends saw the same event stream.
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if len(st.Backends) != 2 || st.Events == 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestBackendSwapOverHTTP: POST /v1/select with a "backends" list swaps the
// measurement set of the live instance — with no selection source at all —
// and unknown names come back as a 400 listing the registry.
func TestBackendSwapOverHTTP(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Backends: []string{"scorep", "extrae"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: %d %s", resp.StatusCode, body)
	}
	var sr ctl.SelectResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.BackendSwap == nil || sr.BackendSwap.From != "talp" || sr.BackendSwap.To != "mux(scorep,extrae)" {
		t.Fatalf("swap report = %+v", sr.BackendSwap)
	}
	if len(sr.Backends) != 2 || sr.Backends[0] != "scorep" {
		t.Fatalf("backends after swap = %v", sr.Backends)
	}
	if got := inst.Backends(); len(got) != 2 || got[0] != "scorep" || got[1] != "extrae" {
		t.Fatalf("instance backends = %v", got)
	}
	// The next phase measures under the new set.
	resp, body = postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after swap: %d %s", resp.StatusCode, body)
	}
	var rep ctl.ReportResponse
	getJSON(t, ts.URL+"/v1/report", &rep)
	if _, ok := rep.Reports["scorep"]; !ok {
		t.Fatalf("no scorep report after swap: %v", rep.Backends)
	}
	if _, ok := rep.Reports["talp"]; ok {
		t.Fatal("detached talp backend still reporting")
	}
	// Unknown names fail fast, listing the registered backends.
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Backends: []string{"no-such-backend"}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "registered:") {
		t.Fatalf("unknown backend swap: %d %s", resp.StatusCode, body)
	}
	// An adaptive instance swaps like any other, and its controller keeps
	// deciding on the new chain.
	ts2, _, inst2 := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Adapt: &capi.AdaptOptions{Budget: 0.5}})
	resp, body = postJSON(t, ts2.URL+"/v1/select", ctl.SelectRequest{Backends: []string{"extrae"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive swap: %d %s", resp.StatusCode, body)
	}
	res, err := inst2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AdaptEpochs) == 0 || res.Reports["extrae"] == nil {
		t.Fatalf("after the swap: %d controller epochs, backends %v", len(res.AdaptEpochs), res.Backends)
	}
}

// TestRemoteReselectionMidPhaseMultiBackend: the e2e acceptance path for
// the fan-out — a long phase executes under talp+scorep+extrae while a
// narrower selection lands over HTTP. The ReconfigReport must carry the
// per-backend synthetic-exit breakdown, summing to the total, and when
// ranks were caught inside deselected functions both stateful backends
// must have closed their share.
func TestRemoteReselectionMidPhaseMultiBackend(t *testing.T) {
	// Fewer timesteps than the single-backend variant: the three-way fan-out
	// dispatches every event thrice, so the phase is long enough for the
	// select to land mid-phase well before 12000 steps.
	ts, _, inst := newServer(t, capi.Lulesh(capi.LuleshOptions{Timesteps: 4000}), "lulesh",
		capi.RunOptions{Backends: []string{"talp", "scorep", "extrae"}, Ranks: 2})

	wait := false
	resp, body := postJSON(t, ts.URL+"/v1/run", ctl.RunRequest{Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 200; i++ {
		var st ctl.StatusResponse
		getJSON(t, ts.URL+"/v1/status", &st)
		if st.Running || st.Runs > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: narrowSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, body)
	}
	var sr ctl.SelectResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Report.Unpatched == 0 {
		t.Fatalf("nothing deselected: %+v", sr.Report)
	}
	sum := 0
	for _, n := range sr.Report.SyntheticExitsByBackend {
		sum += n
	}
	if sum != sr.Report.SyntheticExits {
		t.Fatalf("per-backend exits %v sum to %d, total %d",
			sr.Report.SyntheticExitsByBackend, sum, sr.Report.SyntheticExits)
	}
	if sr.Report.SyntheticExits > 0 {
		by := sr.Report.SyntheticExitsByBackend
		if by["talp"] == 0 || by["scorep"] == 0 {
			t.Fatalf("synthetic exits missing on a mux backend: %v", by)
		}
		if _, ok := by["extrae"]; ok {
			t.Fatalf("extrae keeps no open state but appears in %v", by)
		}
	} else {
		t.Log("note: no rank was inside a deselected function; breakdown invariant still verified")
	}

	// Drain the phase; the run must complete cleanly under the mux.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st ctl.StatusResponse
		getJSON(t, ts.URL+"/v1/status", &st)
		if st.LastError != "" {
			t.Fatalf("phase failed: %s", st.LastError)
		}
		if !st.Running && st.LastRun != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All three backends report on the same (re-selected) stream.
	var rep ctl.ReportResponse
	getJSON(t, ts.URL+"/v1/report", &rep)
	for _, name := range []string{"talp", "scorep", "extrae"} {
		if _, ok := rep.Reports[name]; !ok {
			t.Fatalf("backend %q missing from envelope (%v)", name, rep.Backends)
		}
	}
	if got := inst.Status().SyntheticExitsByBackend; len(got) > 0 {
		var total int64
		for _, n := range got {
			total += n
		}
		if total != inst.Status().SyntheticExits {
			t.Fatalf("cumulative breakdown %v != total %d", got, inst.Status().SyntheticExits)
		}
	}
}

// TestSSEDeliversOneEventPerReconfigure subscribes to /v1/events and
// applies three re-selections; exactly three "reconfigure" events with
// increasing sequence numbers must arrive.
func TestSSEDeliversOneEventPerReconfigure(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})

	req, err := http.NewRequest("GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type sse struct {
		name string
		data string
	}
	events := make(chan sse, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.name != "":
				events <- cur
				cur = sse{}
			}
		}
	}()

	// The subscription is registered before the handler writes its hello
	// comment; once we can see the client counted, reconfigure three times.
	for i := 0; i < 200; i++ {
		respM, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		raw.ReadFrom(respM.Body) //nolint:errcheck
		respM.Body.Close()
		if strings.Contains(raw.String(), "capi_sse_clients 1") {
			break
		}
		time.Sleep(time.Millisecond)
	}

	specs := []string{narrowSpec, wideSpec, narrowSpec}
	for _, spec := range specs {
		resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select: %d %s", resp.StatusCode, body)
		}
	}

	for i := 1; i <= len(specs); i++ {
		select {
		case ev := <-events:
			if ev.name != "reconfigure" {
				t.Fatalf("event %d: name %q", i, ev.name)
			}
			var rep capi.ReconfigReport
			if err := json.Unmarshal([]byte(ev.data), &rep); err != nil {
				t.Fatalf("event %d: %v in %s", i, err, ev.data)
			}
			if rep.Seq != i {
				t.Fatalf("event %d carries seq %d", i, rep.Seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for reconfigure event %d", i)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected extra event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestShutdownDisconnectsSSEClients: http.Server.Shutdown never cancels
// in-flight request contexts, so Server.Shutdown must unblock open event
// streams itself or graceful shutdown would hang until its timeout.
func TestShutdownDisconnectsSSEClients(t *testing.T) {
	session, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := session.Select(wideSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp := ctl.New(session, inst, "quickstart")
	ts := httptest.NewServer(cp)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	cp.Shutdown()
	select {
	case <-done:
		// stream ended promptly — graceful shutdown can drain
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream still open after Shutdown")
	}
	// Late subscribers get an immediately closed stream, not a hang.
	resp2, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := make([]byte, 1024)
	for {
		if _, err := resp2.Body.Read(buf); err != nil {
			break
		}
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	var idx struct {
		App       string   `json:"app"`
		Endpoints []string `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/", &idx)
	if idx.App != "quickstart" || len(idx.Endpoints) < 8 {
		t.Fatalf("index = %+v", idx)
	}
	// Unknown paths 404.
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

// TestHealthz pins the liveness probe: 200 with the app name and a
// moving uptime, and — because fleet coordinators hit it on every probe
// tick — it must answer while a phase is executing, when /v1/status
// contends on the instance lock.
func TestHealthz(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	var hz ctl.HealthzResponse
	getJSON(t, ts.URL+"/v1/healthz", &hz)
	if !hz.OK || hz.App != "quickstart" || hz.UptimeSeconds < 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Probe while a phase runs: the handler takes no instance lock, so a
	// busy member still reports live.
	wait := false
	resp, body := postJSON(t, ts.URL+"/v1/run", ctl.RunRequest{Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v1/healthz", &hz)
	if !hz.OK {
		t.Fatal("healthz not OK during a running phase")
	}
}

// TestSamplingEndpoint drives POST /v1/sampling end-to-end: install a
// table, see it on /v1/status and /metrics, run a sampled phase, and read
// the conservation counters back through the report envelope.
func TestSamplingEndpoint(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})

	// The gauge starts at 0 (unsampled).
	if got := scrapeMetric(t, ts.URL, "capi_sampling_default_stride"); got != 0 {
		t.Fatalf("fresh instance stride gauge = %d", got)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sampling", ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 16, MinDurationNs: 100}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampling: %d %s", resp.StatusCode, body)
	}
	var snap capi.SamplingSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Configured || snap.Default == nil || snap.Default.Stride != 16 || snap.Default.MinDurationNs != 100 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The gauge moved the moment the table was installed.
	if got := scrapeMetric(t, ts.URL, "capi_sampling_default_stride"); got != 16 {
		t.Fatalf("stride gauge = %d, want 16", got)
	}
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Sampling == nil || st.Sampling.Default == nil || st.Sampling.Default.Stride != 16 {
		t.Fatalf("status sampling = %+v", st.Sampling)
	}

	// A sampled phase: counters conserve and surface everywhere.
	resp, body = postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	c := st.Sampling.Counters
	if c.SampledEvents == 0 || c.Delivered+c.SampledEvents+c.SuppressedPairs+c.CollapsedCalls != c.Enters {
		t.Fatalf("counters do not reconcile: %+v", c)
	}
	// Not just the derived identity: delivery must sit in the
	// per-(function,rank) 1-in-16 ceiling band (min-duration suppression
	// only lowers it further).
	slots := int64(st.ActiveFunctions * st.Ranks)
	if c.Delivered > c.Enters/16+slots {
		t.Fatalf("delivered %d above the 1-in-16 ceiling %d for %d enters",
			c.Delivered, c.Enters/16+slots, c.Enters)
	}
	if got := scrapeMetric(t, ts.URL, "capi_sampled_events_total"); int64(got) != c.SampledEvents {
		t.Fatalf("metrics sampled = %d, status says %d", got, c.SampledEvents)
	}
	var rep ctl.ReportResponse
	getJSON(t, ts.URL+"/v1/report", &rep)
	if rep.Sampling == nil || rep.Sampling.Counters.Enters == 0 {
		t.Fatalf("report envelope missing sampling: %+v", rep.Sampling)
	}
	_ = inst
}

// TestSamplingInvalidSpecLeavesStateUntouched is the no-mutation
// regression for POST /v1/sampling: every 400 — bad JSON, invalid policy
// values, unknown function names — must leave the installed table exactly
// as it was.
func TestSamplingInvalidSpecLeavesStateUntouched(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sampling", ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 8}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	assertUntouched := func(when string) {
		t.Helper()
		snap := inst.Sampling()
		if !snap.Configured || snap.Default == nil || snap.Default.Stride != 8 || snap.FuncPolicies != 0 {
			t.Fatalf("%s mutated the table: %+v", when, snap)
		}
	}
	for _, bad := range []struct {
		req   ctl.SamplingRequest
		field string
	}{
		{ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: -2}}, "stride"},
		{ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{MinDurationNs: -5}}, "minDurationNs"},
		{ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 4}, Functions: map[string]capi.SamplingPolicy{"no_such_function": {Stride: 2}}}, "functions"},
		{ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{RedundantGapNs: 100}}, "redundantGapNs"}, // gap without collapse
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sampling", bad.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %+v: %d %s", bad.req, resp.StatusCode, body)
		}
		if got := errorField(t, body); got != bad.field {
			t.Fatalf("bad request %+v: 400 names field %q, want %q (body %s)", bad.req, got, bad.field, body)
		}
		assertUntouched("invalid sampling request")
	}
	resp2, err := http.Post(ts.URL+"/v1/sampling", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	raw2 := new(bytes.Buffer)
	raw2.ReadFrom(resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp2.StatusCode)
	}
	if got := errorField(t, raw2.Bytes()); got != "body" {
		t.Fatalf("garbage body 400 names field %q, want \"body\"", got)
	}
	assertUntouched("garbage body")
}

// TestMalformedBodyNamesBodyField posts a truncated JSON document to every
// endpoint that decodes one: each answers 400 naming the "body" field, as
// the package doc promises for every 400 a client can fix.
func TestMalformedBodyNamesBodyField(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	for _, path := range []string{"/v1/select", "/v1/sampling", "/v1/adapt", "/v1/run"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s {: %d %s, want 400", path, resp.StatusCode, body)
		} else if got := errorField(t, body); got != "body" {
			t.Errorf("POST %s {: 400 names field %q, want \"body\" (body %s)", path, got, body)
		}
	}
}

// TestSelect400LeavesInstanceUntouched pins the /v1/select no-mutation
// guarantee on every failure path: a selection that fails to compile
// must not apply an accompanying backend swap, a backend swap that
// fails must not apply an accompanying (valid) selection, and an include
// ID that names no function applies nothing.
func TestSelect400LeavesInstanceUntouched(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	activeBefore := inst.Status().ActiveFunctions
	backendsBefore := inst.Backends()
	names := inst.ActiveFunctionNames()

	// (a) Invalid spec + valid backend swap: the swap must not happen.
	resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{
		Spec:     "this = is(not a valid((( spec",
		Backends: []string{"extrae"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec + swap: %d %s", resp.StatusCode, body)
	}
	if got := errorField(t, body); got != "spec" {
		t.Fatalf("invalid spec 400 names field %q, want \"spec\" (body %s)", got, body)
	}
	if got := inst.Backends(); len(got) != len(backendsBefore) || got[0] != backendsBefore[0] {
		t.Fatalf("failed select swapped backends anyway: %v", got)
	}
	if got := inst.Status().ActiveFunctions; got != activeBefore {
		t.Fatalf("failed select changed the selection: %d -> %d", activeBefore, got)
	}

	// (b) Valid include list + unknown backend: the selection must not be
	// applied (and the backend set stays).
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{
		Include:  names[:2],
		Backends: []string{"no-such-backend"},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "registered:") {
		t.Fatalf("valid include + bad backend: %d %s", resp.StatusCode, body)
	}
	if got := errorField(t, body); got != "backends" {
		t.Fatalf("bad backend 400 names field %q, want \"backends\" (body %s)", got, body)
	}
	if got := inst.Status().ActiveFunctions; got != activeBefore {
		t.Fatalf("failed swap applied the selection: %d -> %d", activeBefore, got)
	}
	if got := inst.Backends(); got[0] != backendsBefore[0] {
		t.Fatalf("failed swap changed backends: %v", got)
	}

	// (c) An include ID that names no function: the runtime would drop it
	// and unpatch the whole selection, so it is a 400 like an unknown name.
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{IncludeIDs: []int32{1 << 30}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown include ID: %d %s", resp.StatusCode, body)
	}
	if got := errorField(t, body); got != "includeIDs" {
		t.Fatalf("unknown include ID 400 names field %q, want \"includeIDs\" (body %s)", got, body)
	}
	if got := inst.Status().ActiveFunctions; got != activeBefore {
		t.Fatalf("unknown include ID changed the selection: %d -> %d", activeBefore, got)
	}
	if inst.Status().Reconfigs != 0 {
		t.Fatalf("reconfigs = %d after three 400s", inst.Status().Reconfigs)
	}
}

// ctlSlowBackend is a registered counting backend with a tunable per-event
// delay — slow enough that a tiny async ring provably sheds load during a
// phase. A process-wide singleton so counts survive backend-set swaps.
type ctlSlowBackend struct {
	enters atomic.Int64
	delay  atomic.Int64 // nanoseconds per event
}

func (b *ctlSlowBackend) Name() string { return "ctl-slow" }
func (b *ctlSlowBackend) OnEnter(capi.ThreadCtx, *capi.ResolvedFunc) {
	if d := b.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	b.enters.Add(1)
}
func (b *ctlSlowBackend) OnExit(capi.ThreadCtx, *capi.ResolvedFunc) {
	if d := b.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
func (b *ctlSlowBackend) InitCost(int) int64           { return 0 }
func (b *ctlSlowBackend) StartPhase(*capi.World) error { return nil }
func (b *ctlSlowBackend) Report() capi.Report          { return nil }

var ctlSlow = &ctlSlowBackend{}

func init() {
	capi.RegisterBackend("ctl-slow", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return ctlSlow, nil
	})
	capi.RegisterBackend("ctl-gate", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return ctlGate, nil
	})
}

// ctlGateBackend holds every delivery until hold is released, so the
// async consumer sits on the ring's first event and frees no slot. A
// process-wide singleton like ctlSlow: the registry builds backends by name.
type ctlGateBackend struct{ hold sync.WaitGroup }

func (b *ctlGateBackend) Name() string                               { return "ctl-gate" }
func (b *ctlGateBackend) OnEnter(capi.ThreadCtx, *capi.ResolvedFunc) { b.hold.Wait() }
func (b *ctlGateBackend) OnExit(capi.ThreadCtx, *capi.ResolvedFunc)  { b.hold.Wait() }
func (b *ctlGateBackend) InitCost(int) int64                         { return 0 }
func (b *ctlGateBackend) StartPhase(*capi.World) error               { return nil }
func (b *ctlGateBackend) Report() capi.Report                        { return nil }

var ctlGate = &ctlGateBackend{}

// TestAsyncPipelineOverHTTP is the control-plane e2e for the async event
// pipeline: /v1/status and /metrics must expose the pipeline fields, and a
// phase over an 8-slot ring feeding a 200µs/event backend must move the
// drop counter while the depth gauge settles back to zero behind the
// phase-end drain barrier.
func TestAsyncPipelineOverHTTP(t *testing.T) {
	ctlSlow.delay.Store(int64(200 * time.Microsecond))
	defer ctlSlow.delay.Store(0)
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"ctl-slow"}, Ranks: 2, Async: true, AsyncBuf: 8})
	t.Cleanup(func() { inst.Close() })

	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if !st.Async || st.DroppedAsync != 0 || st.PipelineDepth != 0 {
		t.Fatalf("fresh async status = %+v", st.InstanceStatus)
	}
	if st.AsyncBuf != 8 {
		t.Fatalf("asyncBuf = %d, want the effective 8-slot ring surfaced", st.AsyncBuf)
	}
	if st.PipelineHint != "" {
		t.Fatalf("fresh instance already hints %q; the hint must wait for drops", st.PipelineHint)
	}
	if got := scrapeMetric(t, ts.URL, "capi_pipeline_async"); got != 1 {
		t.Fatalf("capi_pipeline_async = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts.URL, "capi_pipeline_dropped_total"); got != 0 {
		t.Fatalf("fresh drop counter = %d", got)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}

	// The fields moved: back-pressure dropped pairs during the phase, and
	// the Run barrier left the rings empty before the summary was captured.
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.DroppedAsync == 0 {
		t.Fatal("8-slot ring over a 200µs/event backend dropped nothing")
	}
	if st.PipelineDepth != 0 {
		t.Fatalf("pipeline depth %d after the phase, want 0", st.PipelineDepth)
	}
	// Shed load produces operator guidance: the hint names the next
	// power-of-two ring (8 → 16) so the restart advice is copy-pasteable.
	if !strings.Contains(st.PipelineHint, "-async-buf 16") {
		t.Fatalf("pipelineHint = %q, want next-power-of-two advice naming -async-buf 16", st.PipelineHint)
	}
	if got := scrapeMetric(t, ts.URL, "capi_pipeline_dropped_total"); int64(got) != st.DroppedAsync {
		t.Fatalf("metrics dropped = %d, status says %d", got, st.DroppedAsync)
	}
	if got := scrapeMetric(t, ts.URL, "capi_pipeline_depth"); got != 0 {
		t.Fatalf("depth gauge = %d at quiescence", got)
	}
	// The synchronous path advertises itself too: a plain instance reports
	// async 0 so dashboards can tell the modes apart.
	ts2, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if got := scrapeMetric(t, ts2.URL, "capi_pipeline_async"); got != 0 {
		t.Fatalf("inline instance reports capi_pipeline_async = %d", got)
	}
}

// scrapeMetric reads one integer-valued metric from /metrics.
func scrapeMetric(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body) //nolint:errcheck
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(raw.Bytes())
	if m == nil {
		t.Fatalf("%s missing from metrics:\n%s", name, raw.String())
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// subscribeSSE opens /v1/events and feeds parsed events into a channel.
// It waits until the hub has registered the client so no event can be
// published into the gap between subscribe and first read.
func subscribeSSE(t *testing.T, ts *httptest.Server) chan [2]string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	events := make(chan [2]string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				events <- [2]string{name, data}
				name, data = "", ""
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if scrapeMetric(t, ts.URL, "capi_sse_clients") == 1 {
			return events
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("SSE client never registered")
	return nil
}

// TestTTLSelectOverHTTP is the control-plane e2e for ephemeral probes: a
// POST /v1/select with a TTL applies the override, /v1/status counts down
// the pending revert, the expiry arrives as an SSE "expired" event (after
// the override's own "reconfigure"), the selection reverts to the
// pre-override base, and the capi_ttl_* series advance.
func TestTTLSelectOverHTTP(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	wideActive := inst.Status().ActiveFunctions
	events := subscribeSSE(t, ts)

	resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: narrowSpec, TTL: "250ms"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ttl'd select: %d %s", resp.StatusCode, body)
	}
	var selResp ctl.SelectResponse
	if err := json.Unmarshal(body, &selResp); err != nil {
		t.Fatal(err)
	}
	if selResp.TTLSeconds != 0.25 {
		t.Fatalf("ttlSeconds = %v, want 0.25", selResp.TTLSeconds)
	}
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if !st.TTL.SelectPending || st.TTL.Scheduled != 1 {
		t.Fatalf("status after ttl'd select: %+v", st.TTL)
	}
	if st.ActiveFunctions >= wideActive {
		t.Fatalf("override not applied: %d active, had %d", st.ActiveFunctions, wideActive)
	}
	if got := scrapeMetric(t, ts.URL, `capi_ttl_pending{kind="select"}`); got != 1 {
		t.Fatalf("capi_ttl_pending{kind=\"select\"} = %d, want 1", got)
	}

	// The override's own reconfigure, then the expiry's revert.
	for _, want := range []string{"reconfigure", "expired"} {
		select {
		case ev := <-events:
			if ev[0] != want {
				t.Fatalf("event %q, want %q (data %s)", ev[0], want, ev[1])
			}
			if want == "expired" {
				var e capi.TTLExpiry
				if err := json.Unmarshal([]byte(ev[1]), &e); err != nil {
					t.Fatalf("%v in %s", err, ev[1])
				}
				if e.Kind != "select" || e.Report == nil {
					t.Fatalf("expired event = %+v", e)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}

	getJSON(t, ts.URL+"/v1/status", &st)
	if st.ActiveFunctions != wideActive {
		t.Fatalf("reverted to %d active functions, want %d", st.ActiveFunctions, wideActive)
	}
	if st.TTL.SelectPending || st.TTL.Expired != 1 {
		t.Fatalf("status after expiry: %+v", st.TTL)
	}
	if got := scrapeMetric(t, ts.URL, "capi_ttl_expired_total"); got != 1 {
		t.Fatalf("capi_ttl_expired_total = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts.URL, `capi_ttl_pending{kind="select"}`); got != 0 {
		t.Fatalf("capi_ttl_pending{kind=\"select\"} = %d, want 0", got)
	}
}

// TestTTLRequestValidation: TTL strings the server cannot honor are 400s
// that name the ttl field and leave no revert pending, and an explicit
// select cancels a pending revert (counted, visible in /v1/status). Both
// endpoints answer a bad ttl with the same bodies, pinned byte for byte.
func TestTTLRequestValidation(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	// ttlErr is the 400 document both handlers write for a bad ttl.
	ttlErr := func(msg string) string {
		return "{\n  \"error\": " + strconv.Quote(msg) + ",\n  \"field\": \"ttl\"\n}\n"
	}
	for _, bad := range []struct {
		path string
		req  any
		want string
	}{
		{"/v1/select", ctl.SelectRequest{Spec: narrowSpec, TTL: "soon"}, ttlErr(`parsing ttl: time: invalid duration "soon"`)},
		{"/v1/select", ctl.SelectRequest{Spec: narrowSpec, TTL: "-3s"}, ttlErr(`ttl must be positive, got "-3s"`)},
		{"/v1/select", ctl.SelectRequest{Backends: []string{"extrae"}, TTL: "1s"},
			ttlErr("ttl requires a selection to revert from (a backends swap alone cannot expire)")},
		{"/v1/sampling", ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 4}, TTL: "nope"}, ttlErr(`parsing ttl: time: invalid duration "nope"`)},
		{"/v1/sampling", ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 4}, TTL: "0s"}, ttlErr(`ttl must be positive, got "0s"`)},
	} {
		resp, got := postJSON(t, ts.URL+bad.path, bad.req)
		if resp.StatusCode != http.StatusBadRequest || string(got) != bad.want {
			t.Errorf("%s: %d\n%s\nwant 400\n%s", bad.path, resp.StatusCode, got, bad.want)
		}
	}
	var st ctl.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.TTL.SelectPending || st.TTL.SamplingPending || st.TTL.Scheduled != 0 {
		t.Fatalf("rejected TTLs left state behind: %+v", st.TTL)
	}

	// A pending revert is canceled by an explicit select, not delivered.
	resp, body := postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: narrowSpec, TTL: "1h"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ttl'd select: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/select", ctl.SelectRequest{Spec: wideSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit select: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.TTL.SelectPending || st.TTL.Canceled != 1 {
		t.Fatalf("explicit select did not cancel the revert: %+v", st.TTL)
	}
	if got := scrapeMetric(t, ts.URL, "capi_ttl_canceled_total"); got != 1 {
		t.Fatalf("capi_ttl_canceled_total = %d, want 1", got)
	}
	_ = inst
}

// TestReportWireGolden pins GET /v1/report byte for byte: quickstart under
// talp,extrae on two ranks after one phase. Each rank registers its own
// TALP regions, so the goroutine schedule moves no virtual timestamp.
func TestReportWireGolden(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp", "extrae"}, Ranks: 2})
	if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"wait": true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/report differs from testdata/report.golden\n--- got ---\n%s", got)
	}
}

// TestStatusKeysGolden pins the top-level key order of GET /v1/status for
// a fresh inline and a fresh async instance: clients that read the
// document in order, and the CI greps, see a reordering as a diff in
// testdata/status_keys.golden.
func TestStatusKeysGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		opts capi.RunOptions
	}{
		{"inline", capi.RunOptions{Backends: []string{"talp"}, Ranks: 2}},
		{"async", capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Async: true}},
	} {
		ts, _, inst := newServer(t, capi.Quickstart(), "quickstart", c.opts)
		t.Cleanup(inst.Close)
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(resp.Body)
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("%s: status is not an object: %v %v", c.name, tok, err)
		}
		got.WriteString("# " + c.name + "\n")
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				t.Fatal(err)
			}
			got.WriteString(key.(string) + "\n")
		}
		resp.Body.Close()
	}
	want, err := os.ReadFile("testdata/status_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/v1/status keys differ from testdata/status_keys.golden\n--- got ---\n%s", got.String())
	}
}

// TestOrphanExitDropInStatus: an exit without a recorded enter that meets a
// full async ring is counted, and GET /v1/status carries the count. The
// gate holds the consumer, so an HTTP worker rank's 8-slot ring takes 8 of
// 9 orphan exits and rejects the ninth.
func TestOrphanExitDropInStatus(t *testing.T) {
	ctlGate.hold.Add(1)
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"ctl-gate"}, Ranks: 1, Async: true, AsyncBuf: 8, HTTPWorkers: 1})
	t.Cleanup(inst.Close)
	t.Cleanup(sync.OnceFunc(ctlGate.hold.Done)) // runs first: Close drains
	id, ok := inst.ResolveFunctionName(inst.ActiveFunctionNames()[0])
	if !ok {
		t.Fatal("active function does not resolve")
	}
	rcs, err := inst.NewRequestContexts(1)
	if err != nil {
		t.Fatal(err)
	}
	for range 9 {
		rcs[0].Exit(id)
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"droppedAsyncOrphanExits": 1,`)) {
		t.Fatalf("status lacks \"droppedAsyncOrphanExits\": 1:\n%s", body)
	}
	if st := inst.Status(); st.DroppedAsyncOrphanExits != 1 || st.DroppedAsync != 0 {
		t.Fatalf("orphan exits dropped %d, pairs dropped %d; want 1 and 0", st.DroppedAsyncOrphanExits, st.DroppedAsync)
	}
}
