package fleet_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestOversizeFanoutIs413AndContactsNoMember pins the coordinator's body
// bound: a fan-out body over the 1 MiB limit is refused whole. Relaying
// its first MiB — here a valid spec on its own — would have every member
// apply a selection the caller never sent.
func TestOversizeFanoutIs413AndContactsNoMember(t *testing.T) {
	var posts atomic.Int64
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		w.WriteHeader(http.StatusNotFound) // no event stream, no control plane
	}))
	t.Cleanup(member.Close)

	opts := fastOpts()
	opts.Members = []string{member.URL}
	_, ts := newCoordinator(t, opts)

	const limit = 1 << 20
	body := wideSpec + strings.Repeat("# padding\n", limit/10+1)
	if code := post(t, ts.URL+"/v1/select", "text/plain", body, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize fan-out: status %d, want 413", code)
	}
	huge := `{"url":"` + member.URL + `","name":"` + strings.Repeat("n", limit) + `"}`
	if code := post(t, ts.URL+"/v1/fleet/register", "application/json", huge, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize register: status %d, want 413", code)
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("coordinator relayed an oversize body: member saw %d POSTs, want 0", n)
	}
}
