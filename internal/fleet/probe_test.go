package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// hungHealthz serves a /v1/healthz that hangs until the test ends; started
// receives one value per request that arrived.
func hungHealthz(t *testing.T) (url string, started <-chan struct{}) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	return srv.URL, arrived
}

// switchable is a member's /v1/healthz that answers 200 until down is set,
// 503 after; answered counts the requests it answered.
type switchable struct {
	down     atomic.Bool
	answered atomic.Int64
}

func (h *switchable) serve(t *testing.T) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		defer h.answered.Add(1)
		if h.down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// healthyWithin polls member name's health until it reads want or d passes.
func healthyWithin(s *Server, name string, want bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, m := range s.reg.snapshot() {
			if m.Name == name && m.Healthy == want {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestProbeHungMemberDelaysNoOther: member a's /v1/healthz hangs for the
// whole test and member b, marked down, answers at once. a's probe waits up
// to Timeout (3 s), so b must be probed beside a, not after it, to read
// healthy again within 1 s.
func TestProbeHungMemberDelaysNoOther(t *testing.T) {
	hung, _ := hungHealthz(t)
	live := new(switchable).serve(t)

	s, err := New(Options{ProbeInterval: 20 * time.Millisecond, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.reg.upsert("a", hung, "", true)
	s.reg.upsert("b", live, "", true)
	s.reg.setHealth("b", false, "marked down", false)

	if !healthyWithin(s, "b", true, time.Second) {
		t.Fatal("b still down 1s after the prober started: its probe waited behind a's hung healthz")
	}
}

// TestProbeHungMemberHidesNoFailure: member a's /v1/healthz hangs, and
// member b starts failing once a's probe is under way and b's has been
// answered. A prober that probes in rounds sees b's failure only in the
// next round, after a's probe times out (Timeout, 3 s); b's own probe
// timer must see it within 1 s.
func TestProbeHungMemberHidesNoFailure(t *testing.T) {
	hung, started := hungHealthz(t)
	b := new(switchable)
	live := b.serve(t)

	s, err := New(Options{ProbeInterval: 20 * time.Millisecond, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.reg.upsert("a", hung, "", true)
	s.reg.upsert("b", live, "", true)

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("a was never probed")
	}
	for b.answered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	b.down.Store(true)
	if !healthyWithin(s, "b", false, time.Second) {
		t.Fatal("b still healthy 1s after its healthz started failing: its probe waited behind a's hung healthz")
	}
}
