// Package fleet is the federated control plane: one coordinator over many
// capi serve instances. The single-instance control plane (internal/ctl)
// drives exactly one in-process Instance; the paper's own setting is a
// multi-rank MPI job steered as one system (TALP/DLB coordinate across
// ranks at runtime), and selection decisions are only meaningful
// fleet-wide — a global overhead budget must be split and enforced across
// members, not per process. capi fleet mounts this server.
//
// Members are capi serve endpoints, discovered two ways: a static
// -members list given at start-up, and dynamic self-registration
// (POST /v1/fleet/register, re-POSTed as a heartbeat). A registered member
// that misses its heartbeat TTL is evicted by its own timer, which every
// heartbeat resets; static members are never evicted, only marked
// unhealthy by the /v1/healthz liveness prober.
//
// Endpoints:
//
//	POST /v1/fleet/register   {"url","name","app"} → join or heartbeat
//	GET  /v1/fleet/status     member table + rollup counters (runs, events,
//	                          droppedAsync, droppedPanicked, breaker state)
//	GET  /v1/fleet/report     per-backend envelope merge across members;
//	                          TALP per-rank times are concatenated
//	                          (pop.Merge) and POP metrics recomputed over
//	                          the fleet's ranks (pop.Compute)
//	GET  /v1/fleet/events     SSE mux: every member's event stream, tailed
//	                          with reconnect/backoff, tagged by member
//	POST /v1/select           fan-out to every member   ─┐ per-member
//	POST /v1/sampling         fan-out to every member    ├ timeout/retry/
//	POST /v1/adapt            fan-out to every member   ─┘ backoff
//	GET  /v1/healthz          the coordinator's own liveness probe
//	GET  /metrics             fleet series + every member's /v1/status
//	                          rendered as series labelled member="<name>"
//
// Fan-out is all-or-report-divergence: the response lists exactly which
// members applied the change (applied) and which did not (failed, with the
// per-member error), and the HTTP status encodes the split — 200 when every
// member applied, 207 on partial application (divergent: true), 502 when
// no member applied, 503 when the fleet is empty. A dead member is
// reported as failed, never silently dropped: convergence is the caller's
// decision, so the coordinator never hides a divergent member behind a
// 200.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"capi/internal/ctl"
)

// Defaults for Options zero values.
const (
	// DefaultTTL is the heartbeat TTL for dynamically registered members.
	DefaultTTL = 15 * time.Second
	// DefaultProbeInterval is the /v1/healthz liveness probe cadence.
	DefaultProbeInterval = 5 * time.Second
	// DefaultTimeout bounds every control request to one member (per
	// attempt, not per fan-out).
	DefaultTimeout = 5 * time.Second
	// DefaultRetries is how many times a retryable (network / 5xx)
	// fan-out failure is retried per member.
	DefaultRetries = 2
	// DefaultBackoff is the first retry delay; it doubles per attempt.
	DefaultBackoff = 150 * time.Millisecond
	// DefaultHeartbeatInterval is how often Heartbeat re-registers —
	// one third of DefaultTTL, so two beats may be lost before eviction.
	DefaultHeartbeatInterval = 5 * time.Second
)

// maxBodyBytes bounds request and relayed response bodies.
const maxBodyBytes = 1 << 20

// Options configures a coordinator.
type Options struct {
	// Members lists static member base URLs (joined at start-up, never
	// evicted — only marked unhealthy when their probe fails).
	Members []string
	// TTL is the heartbeat TTL for registered members (DefaultTTL if 0).
	TTL time.Duration
	// ProbeInterval is the liveness probe cadence (DefaultProbeInterval
	// if 0): each member is probed this long after its previous probe
	// returned. Negative disables the prober.
	ProbeInterval time.Duration
	// Timeout bounds each control request to one member (DefaultTimeout
	// if 0).
	Timeout time.Duration
	// Retries is the per-member retry count for retryable fan-out
	// failures (DefaultRetries if 0; negative means no retries).
	Retries int
	// Backoff is the first retry delay, doubling per attempt
	// (DefaultBackoff if 0).
	Backoff time.Duration
	// Client overrides the HTTP client used for member requests (tests).
	// It must not set Client.Timeout: SSE tails stream indefinitely and
	// per-request deadlines come from contexts.
	Client *http.Client
}

// Server is the coordinator. Create it with New, mount it on any
// http.Server (it implements http.Handler), and Close it to stop the
// eviction timers and every member's tailer and prober.
type Server struct {
	opts    Options
	reg     *registry
	mux     *http.ServeMux
	hub     *ctl.Hub
	client  *http.Client
	started time.Time

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	fanouts        atomic.Int64 // fan-out requests served
	fanoutFailures atomic.Int64 // member applications that failed, summed
}

// New builds a coordinator and joins the static members. It fails fast on
// an unparsable static member URL.
func New(opts Options) (*Server, error) {
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		hub:     ctl.NewHub(),
		client:  client,
		started: time.Now(),
		baseCtx: ctx,
		stop:    cancel,
	}
	s.reg = newRegistry(opts.TTL, s.memberJoined, s.memberLeft)

	s.mux.HandleFunc("POST /v1/fleet/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	s.mux.HandleFunc("GET /v1/fleet/report", s.handleFleetReport)
	s.mux.HandleFunc("GET /v1/fleet/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/select", s.fanoutHandler("/v1/select"))
	s.mux.HandleFunc("POST /v1/sampling", s.fanoutHandler("/v1/sampling"))
	s.mux.HandleFunc("POST /v1/adapt", s.fanoutHandler("/v1/adapt"))
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)

	for _, raw := range opts.Members {
		name, base, err := normalizeMemberURL(raw, "")
		if err != nil {
			cancel()
			return nil, fmt.Errorf("fleet: static member %q: %w", raw, err)
		}
		s.reg.upsert(name, base, "", true)
	}
	return s, nil
}

// ServeHTTP implements http.Handler. It bounds the body before any handler
// sees it: an oversize fan-out is refused, never relayed cut short.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Close stops the eviction timers and every member's tailer and prober, and
// disconnects the SSE subscribers. It blocks until every goroutine the
// coordinator started has exited — which is what the no-leak test pins.
func (s *Server) Close() {
	s.stop()
	s.reg.close()
	s.hub.Shutdown()
	s.wg.Wait()
}

// memberJoined starts the member's SSE tailer and prober and announces the
// join on the fleet stream. Called by the registry with its lock held; the
// returned cancel stops both on eviction or replacement.
func (s *Server) memberJoined(m *member) context.CancelFunc {
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.wg.Add(1)
	go s.tailMember(ctx, m)
	if s.opts.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeMember(ctx, m)
	}
	s.hub.Publish("fleet", lifecycleEvent{Member: m.name, URL: m.url, State: "registered"})
	return cancel
}

// memberLeft announces an eviction/replacement on the fleet stream.
func (s *Server) memberLeft(name, reason string) {
	s.hub.Publish("fleet", lifecycleEvent{Member: name, State: reason})
}

// lifecycleEvent is the payload of the fleet's own "fleet" SSE events.
type lifecycleEvent struct {
	Member string `json:"member"`
	URL    string `json:"url,omitempty"`
	State  string `json:"state"`
}

// normalizeMemberURL validates a member base URL and derives the member
// name (explicit name, else the URL's host:port).
func normalizeMemberURL(raw, name string) (string, string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", "", err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", "", fmt.Errorf("need an absolute http(s) base URL, got %q", raw)
	}
	base := u.Scheme + "://" + u.Host + u.Path
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if name == "" {
		name = u.Host
	}
	return name, base, nil
}

// RegisterRequest is the POST /v1/fleet/register body. URL is the member's
// reachable base URL (required); Name defaults to the URL's host:port; App
// names the member's workload in the member table. Re-POSTing is the
// heartbeat: same name, deadline moves.
type RegisterRequest struct {
	URL  string `json:"url"`
	Name string `json:"name,omitempty"`
	App  string `json:"app,omitempty"`
}

// RegisterResponse acknowledges a registration or heartbeat.
type RegisterResponse struct {
	Name       string  `json:"name"`
	TTLSeconds float64 `json:"ttlSeconds"`
	Members    int     `json:"members"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !ctl.DecodeBody(w, r, &req) {
		return
	}
	if req.URL == "" {
		ctl.WriteFieldErr(w, http.StatusBadRequest, "url", "url is required")
		return
	}
	name, base, err := normalizeMemberURL(req.URL, req.Name)
	if err != nil {
		ctl.WriteFieldErr(w, http.StatusBadRequest, "url", "%v", err)
		return
	}
	if !s.reg.upsert(name, base, req.App, false) {
		ctl.WriteErr(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	ctl.WriteJSON(w, http.StatusOK, RegisterResponse{
		Name:       name,
		TTLSeconds: s.opts.TTL.Seconds(),
		Members:    s.reg.count(),
	})
}

// HealthzResponse is the GET /v1/healthz document.
type HealthzResponse struct {
	OK            bool    `json:"ok"`
	Members       int     `json:"members"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctl.WriteJSON(w, http.StatusOK, HealthzResponse{
		OK:            true,
		Members:       s.reg.count(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	ctl.WriteJSON(w, http.StatusOK, map[string]any{
		"fleet": true,
		"endpoints": []string{
			"POST /v1/fleet/register", "GET /v1/fleet/status",
			"GET /v1/fleet/report", "GET /v1/fleet/events",
			"POST /v1/select", "POST /v1/sampling", "POST /v1/adapt",
			"GET /v1/healthz", "GET /metrics",
		},
	})
}

// probeMember polls m's GET /v1/healthz until ctx ends, ProbeInterval
// after each probe returned, and records the outcome in the member table.
// Every member has its own prober, so one whose healthz hangs delays only
// its own next probe. Static members have no heartbeat, so the probe is
// their only liveness signal; for registered members it colors the table
// between heartbeats (eviction stays TTL-driven).
func (s *Server) probeMember(ctx context.Context, m *member) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.opts.ProbeInterval):
		}
		code, err := s.doMember(http.MethodGet, m.url+"/v1/healthz", "", nil, new(bytes.Buffer))
		if ctx.Err() != nil {
			return // m left the table: its name may be another member's now
		}
		switch {
		case err != nil:
			s.reg.setHealth(m.name, false, err.Error(), false)
		case code != http.StatusOK:
			s.reg.setHealth(m.name, false, fmt.Sprintf("healthz status %d", code), false)
		default:
			s.reg.setHealth(m.name, true, "", true)
		}
	}
}

// doMember sends one request to one member under the per-request timeout
// and reads the bounded response into an empty buffer. status is 0 when no
// response arrived; a body-read failure after the status line keeps the
// status and empties the buffer.
func (s *Server) doMember(method, url, ctype string, body []byte, into *bytes.Buffer) (status int, err error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := into.ReadFrom(io.LimitReader(resp.Body, maxBodyBytes)); err != nil {
		into.Reset()
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// memberJSON GETs path from one member and decodes the 200 body into v.
// status is what the member answered, 0 when it did not.
func (s *Server) memberJSON(m memberSnap, path string, v any) (status int, err error) {
	body := getBuffer()
	defer putBuffer(body)
	status, err = s.doMember(http.MethodGet, m.URL+path, "", nil, body)
	if err != nil {
		return status, err
	}
	if status != http.StatusOK {
		return status, fmt.Errorf("status %d from member", status)
	}
	if err := json.Unmarshal(body.Bytes(), v); err != nil {
		return status, fmt.Errorf("decoding member %s: %v", path, err)
	}
	return status, nil
}

// eachMember runs f for every member at once and returns the results in
// member order, which a registry snapshot sorts by name — the one fan-out
// loop behind every cluster-wide request.
func eachMember[T any](members []memberSnap, f func(memberSnap) T) []T {
	out := make([]T, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f(m)
		}()
	}
	wg.Wait()
	return out
}
