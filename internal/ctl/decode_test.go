package ctl_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/fleet"
)

// uptimeRe matches the one status value that moves on its own.
var uptimeRe = regexp.MustCompile(`"uptimeSeconds": [^,\n]+`)

// TestUnknownFieldRejected: every endpoint that decodes a JSON body answers
// an unknown field with a 400 naming it, and trailing data after the value
// with a 400 naming "body" — and applies nothing: a misspelled sampling
// field must not clear the live table.
func TestUnknownFieldRejected(t *testing.T) {
	ts, _, inst := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Adapt: &capi.AdaptOptions{Budget: 0.05}})
	if resp, body := postJSON(t, ts.URL+"/v1/sampling", ctl.SamplingRequest{SamplingPolicy: capi.SamplingPolicy{Stride: 16}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("install stride 16: %d %s", resp.StatusCode, body)
	}
	coord, err := fleet.New(fleet.Options{TTL: 10 * time.Minute, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	fts := httptest.NewServer(coord)
	t.Cleanup(fts.Close)

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return uptimeRe.ReplaceAllString(string(body), `"uptimeSeconds": 0`)
	}
	// There is no GET for the sampling table: it is read from the instance.
	state := func() []string {
		sampling, _ := json.Marshal(inst.Sampling())
		return []string{
			get(ts.URL + "/v1/status"),
			get(ts.URL + "/v1/selection"),
			string(sampling),
			get(fts.URL + "/v1/fleet/status"),
		}
	}
	for _, c := range []struct {
		name, url, body, field string
	}{
		{"select", ts.URL + "/v1/select", `{"builtn":"mpi"}`, "builtn"},
		{"run", ts.URL + "/v1/run", `{"wiat":true}`, "wiat"},
		{"adapt", ts.URL + "/v1/adapt", `{"budjet":0.5}`, "budjet"},
		{"sampling", ts.URL + "/v1/sampling", `{"strid":4}`, "strid"},
		{"register", fts.URL + "/v1/fleet/register", `{"url":"http://127.0.0.1:1","nmae":"m1"}`, "nmae"},
		{"select trailing", ts.URL + "/v1/select", `{"builtin":"mpi"} x`, "body"},
		{"run trailing", ts.URL + "/v1/run", `{"wait":true}{"wait":false}`, "body"},
		{"sampling trailing", ts.URL + "/v1/sampling", `{"stride":4} trailing-garbage`, "body"},
		{"register trailing", fts.URL + "/v1/fleet/register", `{"url":"http://127.0.0.1:1"}{}`, "body"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := state()
			resp, err := http.Post(c.url, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s: %d %s, want 400", c.body, resp.StatusCode, body)
			}
			if got := errorField(t, body); got != c.field {
				t.Errorf("POST %s: 400 names field %q, want %q (body %s)", c.body, got, c.field, body)
			}
			for i, after := range state() {
				if after != before[i] {
					t.Errorf("POST %s changed state:\nbefore %s\nafter  %s", c.body, before[i], after)
				}
			}
		})
	}
}

// TestRunAcceptsEmptyBody: /v1/run is the one endpoint whose body is
// optional, whether the empty body has a known length or arrives chunked.
func TestRunAcceptsEmptyBody(t *testing.T) {
	ts, _, _ := newServer(t, capi.Quickstart(), "quickstart",
		capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	for name, body := range map[string]io.Reader{"no body": nil, "chunked": io.MultiReader()} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", name, resp.StatusCode, out)
		}
	}
}
