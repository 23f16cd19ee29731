package middleware_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	capi "capi"
	"capi/middleware"
)

func startInstance(t *testing.T, httpWorkers int) (*capi.Session, *capi.Instance) {
	t.Helper()
	session, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{
		PatchAll:    true,
		Ranks:       2,
		HTTPWorkers: httpWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	return session, inst
}

// TestServiceRoutes compiles the full webservice route table and checks
// the compiled scripts' shape: every route resolves, the hot feed route
// dispatches far more enter/exit pairs than the health check, and both
// the HTTP path and the direct Do path serve requests that land in the
// instance's per-endpoint accounting.
func TestServiceRoutes(t *testing.T) {
	session, inst := startInstance(t, 2)
	svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	feed, health := "GET /api/feed", "GET /healthz"
	if p := svc.EventPairs(feed); p < 100 {
		t.Errorf("feed compiles to %d event pairs, expected a hot route (>= 100)", p)
	}
	if svc.EventPairs(health) >= svc.EventPairs(feed) {
		t.Errorf("healthz (%d pairs) should be far lighter than feed (%d)",
			svc.EventPairs(health), svc.EventPairs(feed))
	}
	for _, ep := range capi.WebserviceEndpoints() {
		if svc.BaseWorkNs(ep.Route) <= 0 {
			t.Errorf("route %s has no base work", ep.Route)
		}
	}

	// HTTP path: the mux serves the compiled route and reports the
	// virtual latency.
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/feed")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"endpoint":"GET /api/feed"`) {
		t.Errorf("unexpected response body: %s", body)
	}

	// Direct path: Do returns the virtual latency without HTTP plumbing.
	lat, err := svc.Do(feed)
	if err != nil {
		t.Fatal(err)
	}
	if lat < svc.BaseWorkNs(feed) {
		t.Errorf("feed latency %dns below its base work %dns", lat, svc.BaseWorkNs(feed))
	}
	if _, err := svc.Do("GET /no/such/route"); err == nil {
		t.Error("Do on an unknown route must error")
	}

	st := inst.Status()
	if st.HTTP == nil {
		t.Fatal("instance status has no HTTP section after traffic")
	}
	var feedReqs int64
	for _, ep := range st.HTTP.Endpoints {
		if ep.Endpoint == feed {
			feedReqs = ep.Requests
		}
	}
	if feedReqs != 2 {
		t.Errorf("feed accounted %d requests, want 2 (one HTTP, one Do)", feedReqs)
	}
}

// TestTapWrap attaches a Tap around a plain handler: each request must
// pass through untouched while its wall-clock latency lands in the
// endpoint histogram, with and without a resolvable function name.
func TestTapWrap(t *testing.T) {
	_, inst := startInstance(t, 2)
	tap, err := middleware.NewTap(inst, "GET /ping", "handle_healthz", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tap.Endpoint() != "GET /ping" {
		t.Errorf("endpoint = %q", tap.Endpoint())
	}
	h := tap.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/ping", nil))
		if rec.Body.String() != "pong" {
			t.Fatalf("inner handler response lost: %q", rec.Body.String())
		}
	}

	// An unresolvable function name is not an error: the tap still
	// measures, it just has nothing to dispatch.
	tap2, err := middleware.NewTap(inst, "GET /other", "no_such_function", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tap2.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})).
		ServeHTTP(rec, httptest.NewRequest("GET", "/other", nil))

	snap := inst.Status().HTTP
	if snap == nil {
		t.Fatal("no HTTP snapshot after tap traffic")
	}
	got := map[string]int64{}
	for _, ep := range snap.Endpoints {
		got[ep.Endpoint] = ep.Requests
	}
	if got["GET /ping"] != 3 || got["GET /other"] != 1 {
		t.Errorf("tap accounting = %v, want ping=3 other=1", got)
	}
}
