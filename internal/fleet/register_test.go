package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capi/internal/fleet"
)

// recvWithin returns the next value on ch, failing the test when none
// arrives within 10 s.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s within 10s", what)
	}
	var zero T
	return zero
}

// TestHeartbeatRegistersAndLogsTransitionsOnce drives Heartbeat against a
// fake coordinator that reports every registration POST: the first POST
// goes out at once, the tick re-registers, a run of successful beats logs
// "registered" once, a coordinator that goes down (every connection
// aborted, as a dead process's port fails) logs "unreachable" once however
// many beats then fail, and cancelling the context ends Heartbeat.
func TestHeartbeatRegistersAndLogsTransitionsOnce(t *testing.T) {
	var down atomic.Bool
	posts := make(chan fleet.RegisterRequest)
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/fleet/register" {
			http.NotFound(w, r)
			return
		}
		var req fleet.RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding registration: %v", err)
		}
		select {
		case posts <- req:
		case <-r.Context().Done():
			return
		}
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`{"name":"m1","ttlSeconds":15,"members":1}`)) //nolint:errcheck
	}))
	t.Cleanup(coord.Close)
	reg := fleet.RegisterRequest{URL: "http://127.0.0.1:1", Name: "m1", App: "quickstart"}

	// start runs one Heartbeat; its log lines arrive on the returned channel
	// (transitions only, so a handful), and done closes when it returns.
	start := func(interval time.Duration) (cancel context.CancelFunc, lines <-chan string, done <-chan struct{}) {
		ctx, cancel := context.WithCancel(context.Background())
		logs := make(chan string, 16)
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			fleet.Heartbeat(ctx, coord.URL, reg, interval, func(format string, args ...any) {
				logs <- format
			})
		}()
		return cancel, logs, exited
	}
	stop := func(cancel context.CancelFunc, done <-chan struct{}) {
		t.Helper()
		cancel()
		recvWithin(t, done, "Heartbeat return after cancel")
	}

	// An hour-long tick: only the immediate first beat can reach the
	// coordinator.
	cancel, _, done := start(time.Hour)
	if got := recvWithin(t, posts, "first registration"); got != reg {
		t.Fatalf("first registration = %+v, want %+v", got, reg)
	}
	stop(cancel, done)

	cancel, lines, done := start(5 * time.Millisecond)
	for range 4 { // the immediate beat and three on the tick
		recvWithin(t, posts, "registration")
	}
	if line := recvWithin(t, lines, "log line"); !strings.HasPrefix(line, "registered") {
		t.Fatalf("first log line = %q, want the registered line", line)
	}
	down.Store(true)
	// Beats keep reaching the coordinator, and failing, until the
	// transition is logged.
	var line string
	for line == "" {
		select {
		case line = <-lines:
		case <-posts:
		case <-time.After(10 * time.Second):
			t.Fatal("no log line within 10s of the coordinator going down")
		}
	}
	if !strings.Contains(line, "unreachable") {
		t.Fatalf("log line after the coordinator went down = %q, want the unreachable line", line)
	}
	// Two beats that start after the failure was logged fail too, and the
	// first of them has completed once the second reaches the coordinator.
	recvWithin(t, posts, "registration")
	recvWithin(t, posts, "registration")
	stop(cancel, done)
	if len(lines) != 0 {
		t.Fatalf("%d more log lines after the unreachable one (first %q), want none", len(lines), <-lines)
	}
}
