package fleet_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"capi/internal/fleet"
)

// scriptedMember is a fake capi serve whose behavior is switched per test
// step: "down" aborts the connection (transport error, no status line),
// "reject" answers a clean 400, and the truncate modes promise a large
// Content-Length but write a short body, so the coordinator receives the
// status line and then fails reading the response.
type scriptedMember struct {
	ts   *httptest.Server
	mode atomic.Value // string
}

func newScriptedMember(t *testing.T) *scriptedMember {
	t.Helper()
	m := &scriptedMember{}
	m.mode.Store("down")
	m.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch m.mode.Load().(string) {
		case "down":
			panic(http.ErrAbortHandler)
		case "reject":
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error":"rejected"}`)) //nolint:errcheck
		case "truncate400":
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"er`)) //nolint:errcheck
		case "truncate500":
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"er`)) //nolint:errcheck
		case "truncate200":
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"ok`)) //nolint:errcheck
		}
	}))
	t.Cleanup(m.ts.Close)
	return m
}

var membersHealthyRe = regexp.MustCompile(`(?m)^capi_fleet_members_healthy (\d+)$`)

// metricsHealthy scrapes the coordinator's own capi_fleet_members_healthy
// gauge — the surface fed directly by the registry health flag the fan-out
// path updates.
func metricsHealthy(t *testing.T, coordURL string) int {
	t.Helper()
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	match := membersHealthyRe.FindSubmatch(text)
	if match == nil {
		t.Fatalf("coordinator /metrics has no capi_fleet_members_healthy gauge")
	}
	n, err := strconv.Atoi(string(match[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFanoutRejectionMarksMemberReachable pins the reachable-vs-applied
// split: a member that answers any HTTP status has proven it is alive, so
// a fan-out rejection must flip it back to healthy even though the
// mutation itself failed. Previously only a 2xx restored health, leaving a
// live-but-rejecting member flagged unreachable forever once a transport
// blip had marked it down.
func TestFanoutRejectionMarksMemberReachable(t *testing.T) {
	m := newScriptedMember(t)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m.ts.URL, "m0")

	// A transport failure (connection aborted before any status) marks the
	// member unhealthy.
	var fr fleet.FanoutResponse
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out to dead member: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 || fr.Failed[0].Status != 0 {
		t.Fatalf("dead member result = %+v, want 1 failure with no status", fr.Failed)
	}
	if got := metricsHealthy(t, coordTS.URL); got != 0 {
		t.Fatalf("members_healthy after transport failure = %d, want 0", got)
	}

	// The member comes back but rejects the document: still a fan-out
	// failure, but it answered — health must recover without a 2xx.
	m.mode.Store("reject")
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out of rejected doc: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 || fr.Failed[0].Status != http.StatusBadRequest || fr.Failed[0].Attempts != 1 {
		t.Fatalf("rejection result = %+v, want status 400 after exactly 1 attempt", fr.Failed)
	}
	if got := metricsHealthy(t, coordTS.URL); got != 1 {
		t.Fatalf("members_healthy after 4xx answer = %d, want 1 (reachable, not applied)", got)
	}
}

// TestFanoutTruncatedBodyClassifiedByStatus pins that a response whose
// body read fails is still classified by the status code that was
// received: a truncated 4xx is a deterministic rejection (one attempt, no
// retry — retrying a rejection cannot converge the fleet), a truncated
// 5xx stays retryable, and a truncated 2xx counts as applied. Previously
// the body-read error routed all three through the transport-error path,
// retrying rejections and flagging the member unreachable.
func TestFanoutTruncatedBodyClassifiedByStatus(t *testing.T) {
	m := newScriptedMember(t)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m.ts.URL, "m0")

	m.mode.Store("truncate400")
	var fr fleet.FanoutResponse
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out of truncated 400: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 {
		t.Fatalf("truncated 400: %+v, want 1 failure", fr)
	}
	if got := fr.Failed[0]; got.Status != http.StatusBadRequest || got.Attempts != 1 {
		t.Fatalf("truncated 400 result = %+v, want status 400 after exactly 1 attempt", got)
	}
	if got := metricsHealthy(t, coordTS.URL); got != 1 {
		t.Fatalf("members_healthy after truncated 400 = %d, want 1 (status line proves reachability)", got)
	}

	m.mode.Store("truncate500")
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out of truncated 500: status %d, want 502", code)
	}
	if got := fr.Failed[0]; got.Status != http.StatusInternalServerError || got.Attempts != 2 {
		t.Fatalf("truncated 500 result = %+v, want status 500 after 2 attempts (1 + 1 retry)", got)
	}

	// A truncated success only loses the relayed response body, not the
	// outcome: the member applied the mutation.
	m.mode.Store("truncate200")
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusOK {
		t.Fatalf("fan-out of truncated 200: status %d, want 200", code)
	}
	if len(fr.Applied) != 1 || fr.Applied[0].Status != http.StatusOK || len(fr.Applied[0].Response) != 0 {
		t.Fatalf("truncated 200 result = %+v, want applied with status 200 and no relayed body", fr.Applied)
	}
}

// TestFanoutRetryRelaysOnlyItsOwnReply pins that a member result describes
// one attempt. The member answers the first select with a 503 and a JSON
// body, then drops the connection of the retry: the result is the retry's
// transport failure, with no status and without the 503's body, which used
// to stay relayed beside the EOF error. The member answers its event
// stream with 404, since the coordinator's tailer asks for it first.
func TestFanoutRetryRelaysOnlyItsOwnReply(t *testing.T) {
	var selects atomic.Int64
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/select" {
			http.NotFound(w, r)
			return
		}
		if selects.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error": "busy"}`)) //nolint:errcheck
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(member.Close)
	opts := fastOpts()
	opts.Members = []string{member.URL}
	_, coordTS := newCoordinator(t, opts)

	var fr fleet.FanoutResponse
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 {
		t.Fatalf("fan-out: %+v, want 1 failure", fr)
	}
	got := fr.Failed[0]
	if got.Attempts != 2 || got.Status != 0 || got.Error == "" {
		t.Fatalf("result = %+v, want the second attempt's transport failure", got)
	}
	if len(got.Response) != 0 {
		t.Errorf("result relays %s beside the error %q: the body of the earlier 503", got.Response, got.Error)
	}
}
