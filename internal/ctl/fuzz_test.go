package ctl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/fleet"
)

// panicLog records the lines an http.Server logs for a handler panic.
type panicLog struct {
	mu     sync.Mutex
	panics []string
}

func (p *panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic")) {
		p.mu.Lock()
		p.panics = append(p.panics, string(b))
		p.mu.Unlock()
	}
	return len(b), nil
}

func (p *panicLog) take() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.panics
	p.panics = nil
	return out
}

// controlTarget is one live adaptive quickstart member behind its control
// plane, also reachable as the only member of a coordinator's fleet.
type controlTarget struct {
	inst          *capi.Instance
	srv           *ctl.Server
	coord         *fleet.Server
	member, front *httptest.Server
}

func startServer(h http.Handler, logs *panicLog) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ErrorLog = log.New(logs, "", 0)
	ts.Start()
	return ts
}

func newControlTarget(tb testing.TB, session *capi.Session, sel *capi.Selection, logs *panicLog) *controlTarget {
	tb.Helper()
	inst, err := session.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Adapt: &capi.AdaptOptions{Budget: 0.05}})
	if err != nil {
		tb.Fatal(err)
	}
	c := &controlTarget{inst: inst, srv: ctl.New(session, inst, "quickstart")}
	c.member = startServer(c.srv, logs)
	if c.coord, err = fleet.New(fleet.Options{TTL: 10 * time.Minute, ProbeInterval: -1}); err != nil {
		tb.Fatal(err)
	}
	c.front = startServer(c.coord, logs)
	body, _ := json.Marshal(fleet.RegisterRequest{URL: c.member.URL, Name: "m1", App: "quickstart"})
	resp, err := http.Post(c.front.URL+"/v1/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("register: %d", resp.StatusCode)
	}
	return c
}

// close waits for a phase a request started, then stops everything.
func (c *controlTarget) close() {
	for deadline := time.Now().Add(10 * time.Second); c.inst.Status().Running && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	c.front.Close()
	c.coord.Close()
	c.srv.Shutdown()
	c.member.Close()
	c.inst.Close()
}

// state renders the member's selection, sampling, backend and adapt
// sections of /v1/status, its /v1/selection document and the controller's
// tuning (read back through a retune that sets nothing).
func (c *controlTarget) state(tb testing.TB) string {
	tb.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(c.member.URL + path)
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	var status map[string]json.RawMessage
	if err := json.Unmarshal(get("/v1/status"), &status); err != nil {
		tb.Fatal(err)
	}
	tuning, err := c.inst.Retune(capi.AdaptOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	for _, key := range []string{"activeFunctions", "reconfigs", "sampling", "ttl", "backends", "breaker", "detachedBackends", "adaptive", "slo"} {
		fmt.Fprintf(&b, "%s: %s\n", key, status[key])
	}
	fmt.Fprintf(&b, "selection: %s\nadapt: %+v\n", get("/v1/selection"), tuning)
	return b.String()
}

// FuzzControlBody POSTs a random path and body to a live quickstart member,
// directly or through a one-member coordinator. Every 4xx — the member's,
// or the coordinator's own — must leave the member's selection, sampling,
// backend and adapt state as it was, and no request may panic a handler. Any other status may change the member, so
// the next input gets a fresh one. Paths naming the fleet's own endpoints
// are not sent through the coordinator: a registration would point it at
// an arbitrary URL.
func FuzzControlBody(f *testing.F) {
	session, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		f.Fatal(err)
	}
	sel, err := session.Select(wideSpec)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		path, body string
		viaCoord   bool
	}{
		{"/v1/sampling", `{"strid":4}`, false},
		{"/v1/sampling", `{"stride":4} trailing-garbage`, true},
		{"/v1/sampling", `{"stride":-1}`, true},
		{"/v1/sampling", `{"stride":2,"functions":{"no_such_fn":{"stride":2}}}`, false},
		{"/v1/sampling", `{"stride":8,"ttl":"-1s"}`, false},
		{"/v1/sampling", `{"stride":8}`, true},
		{"/v1/select", `{"builtn":"mpi"}`, true},
		{"/v1/select", `{"builtin":"mpi","ttl":"soon"}`, false},
		{"/v1/select", `{"builtin":"mpi coarse","ttl":"2s"}`, false},
		{"/v1/select", `{"backends":["nope"]}`, false},
		{"/v1/select", `{"includeIDs":[1073741824]}`, false},
		{"/v1/select", `{"includeIDs":[1073741824]}`, true},
		{"/v1/adapt", `{"budjet":0.5}`, true},
		{"/v1/adapt", `{"sloWindow":100000000}`, false},
		{"/v1/run", `{"wiat":true}`, false},
		{"/v1/run", ``, false},
		{"/v1/status", `{}`, false},
		{"/v1/nope", `{"stride":4}`, true},
	} {
		f.Add(seed.path, []byte(seed.body), seed.viaCoord, false)
	}
	f.Add("/v1/select", []byte("subtract(%mpi_comm, %%"), false, true)

	logs := &panicLog{}
	var target *controlTarget
	f.Cleanup(func() {
		if target != nil {
			target.close()
		}
	})
	client := &http.Client{
		Timeout:       30 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	f.Fuzz(func(t *testing.T, path string, body []byte, viaCoord, dsl bool) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		if viaCoord && (strings.Contains(path, "fleet") || strings.Contains(path, "regist")) {
			t.Skip("the coordinator's own endpoints")
		}
		if target == nil {
			target = newControlTarget(t, session, sel, logs)
		}
		base := target.member.URL
		if viaCoord {
			base = target.front.URL
		}
		u, err := url.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		u.Path = path // the host stays the test server's, whatever the path holds
		req, err := http.NewRequest(http.MethodPost, u.String(), bytes.NewReader(body))
		if err != nil {
			t.Skip("not a request the client can send")
		}
		req.Header.Set("Content-Type", "application/json")
		if dsl {
			req.Header.Set("Content-Type", "text/plain")
		}
		before := target.state(t)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST %q: %v (panics logged: %q)", path, err, logs.take())
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if panics := logs.take(); len(panics) > 0 {
			t.Fatalf("POST %q %q panicked a handler: %q", path, body, panics)
		}
		// Through the coordinator, the member's own answer is in the
		// fan-out document (a rejection by every member is a 502).
		code := resp.StatusCode
		var fan fleet.FanoutResponse
		if viaCoord && json.Unmarshal(reply, &fan) == nil && len(fan.Applied)+len(fan.Failed) == 1 {
			code = append(fan.Applied, fan.Failed...)[0].Status
		}
		if code < 400 || code >= 500 {
			target.close()
			target = nil
			return
		}
		if after := target.state(t); after != before {
			t.Fatalf("POST %q %q answered %d %s and changed the member:\nbefore %s\nafter  %s",
				path, body, code, reply, before, after)
		}
	})
}
