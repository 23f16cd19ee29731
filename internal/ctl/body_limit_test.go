package ctl_test

import (
	"net/http"
	"strings"
	"testing"

	capi "capi"
)

// TestOversizeBodyIs413AndAppliesNothing pins the body bound: a request
// larger than the 1 MiB limit is refused whole. The select and run bodies
// are built so that their first MiB alone is a valid request — cutting the
// body at the limit, instead of failing the read, would apply it.
func TestOversizeBodyIs413AndAppliesNothing(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	activeBefore := inst.Status().ActiveFunctions

	const limit = 1 << 20
	pad := strings.Repeat("# padding\n", limit/10+1)
	hugeString := `"` + strings.Repeat("a", limit) + `"`
	for _, tc := range []struct {
		path, ctype, body string
	}{
		{"/v1/select", "text/plain", narrowSpec + pad},
		{"/v1/select", "application/json", `{"builtin":"mpi","ttl":` + hugeString + `}`},
		{"/v1/run", "application/json", `{"wait":true}` + strings.Repeat(" ", limit)},
		{"/v1/adapt", "application/json", `{"budget":0.5,"x":` + hugeString + `}`},
		{"/v1/sampling", "application/json", `{"default":{"stride":8},"ttl":` + hugeString + `}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s (%s, %d bytes): status %d, want 413", tc.path, tc.ctype, len(tc.body), resp.StatusCode)
		}
	}
	if got := inst.Status().Reconfigs; got != 0 {
		t.Errorf("reconfigs = %d after oversize requests, want 0", got)
	}
	if got := inst.Status().ActiveFunctions; got != activeBefore {
		t.Errorf("oversize select changed the selection: %d -> %d", activeBefore, got)
	}
	if got := inst.Status().Runs; got != 0 {
		t.Errorf("runs = %d after an oversize run request, want 0", got)
	}
	if got := inst.Sampling(); got.Configured {
		t.Errorf("oversize sampling request installed a table: %+v", got)
	}
}
