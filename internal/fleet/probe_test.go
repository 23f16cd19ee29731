package fleet

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestProbeHungMemberDelaysNoOther: member a's /v1/healthz hangs for the
// whole test and member b, marked down, answers at once. Each probe round
// waits up to Timeout (3 s) for a, so b must be probed beside a, not after
// it, to read healthy again within 1 s.
func TestProbeHungMemberDelaysNoOther(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	t.Cleanup(live.Close)

	// Built without a prober, so b is down before the first round runs.
	s, err := New(Options{ProbeInterval: -1, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.reg.upsert("a", hung.URL, "", true)
	s.reg.upsert("b", live.URL, "", true)
	s.reg.setHealth("b", false, "marked down", false)
	s.opts.ProbeInterval = 20 * time.Millisecond
	s.wg.Add(1)
	go s.probeLoop()

	healthy := func(name string) bool {
		for _, m := range s.reg.snapshot() {
			if m.Name == name {
				return m.Healthy
			}
		}
		return false
	}
	deadline := time.Now().Add(time.Second)
	for !healthy("b") {
		if time.Now().After(deadline) {
			t.Fatal("b still down 1s after the prober started: its probe waited behind a's hung healthz")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
