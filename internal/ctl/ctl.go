// Package ctl is the HTTP/JSON control plane over a live capi.Instance: the
// paper's runtime-adaptable selection, drivable *remotely*. In-process the
// Fig. 1 loop iterates Select → Reconfigure → Run; ctl lifts the same loop
// onto a long-lived service so a deployed run can be re-selected online —
// the way adaptive-monitoring systems tune deployed web applications
// without restarts (Mertz & Nunes, arXiv:2305.01039) and reactive
// components are instrumented while they run (Aceto et al.,
// arXiv:2406.19904).
//
// Endpoints:
//
//	GET  /v1/status     instance snapshot (active funcs, reconfigs, drops…)
//	GET  /v1/selection  currently selected function names
//	POST /v1/select     spec-DSL source, builtin name or include list →
//	                    compiled via Session.Select, applied live via
//	                    Instance.Reconfigure; returns the ReconfigReport
//	                    (with per-backend synthetic-exit counts). A
//	                    "backends" list swaps the measurement-backend set
//	                    of the live run (registry-resolved), with or
//	                    without an accompanying re-selection. An optional
//	                    "ttl" duration makes the selection ephemeral: it
//	                    auto-reverts to the pre-override snapshot, as a
//	                    normal Reconfigure + SSE "expired" event, unless
//	                    a newer explicit select lands first.
//	POST /v1/run        execute the next phase ({"wait":false} → async)
//	GET  /v1/report     unified report envelope: every attached backend's
//	                    report, keyed by backend name (kind + JSON body),
//	                    plus the sampler's counters when sampling is on
//	POST /v1/adapt      retune the overhead-budget controller live
//	POST /v1/sampling   install/replace the sampling & suppression table
//	                    (1-in-N stride, min-duration, redundancy collapse)
//	                    on the live hot path; 400 leaves state untouched;
//	                    an optional "ttl" auto-reverts to the previous table
//	GET  /v1/events     SSE stream: "reconfigure" per re-selection, "run",
//	                    "backends", "sampling", "expired" (a TTL revert
//	                    delivered), "breaker" (a backend's panic-barrier
//	                    circuit breaker tripped)
//	GET  /v1/healthz    liveness probe (no instance lock — answers even
//	                    mid-reconfigure; what a fleet coordinator polls)
//	GET  /metrics       the /v1/status document as Prometheus series
//
// Error bodies are {"error": ..., "field": ...}: a 400 names the request
// field it rejects and implies nothing was applied; so does the 413 that
// answers a body over 1 MiB.
//
// The server relies on capi.Instance being safe for concurrent control
// calls against an executing phase: re-selections land mid-run and report
// scrapes snapshot live measurement state.
package ctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	capi "capi"
	"capi/internal/dyncapi"
	"capi/internal/experiments"
	"capi/internal/ic"
	"capi/internal/vtime"
)

// maxBodyBytes bounds request bodies (spec sources are small). ServeHTTP
// wraps every body in http.MaxBytesReader, so a larger one fails the read
// instead of being cut to a prefix that might parse.
const maxBodyBytes = 1 << 20

// BodyErrStatus is the status of a failed body read or decode: 413 when
// the body ran past the reader's limit, else 400. Either way nothing was
// applied.
func BodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Server serves one live instance. Create it with New and mount it on any
// http.Server (it implements http.Handler).
type Server struct {
	session *capi.Session
	inst    *capi.Instance
	app     string
	started time.Time
	// instrumented is fixed at Start: read once here, not from a status
	// snapshot per request.
	instrumented bool

	mux *http.ServeMux
	hub *Hub

	// httpSelects counts re-selections applied through POST /v1/select
	// (the instance's Reconfigs counter also includes controller decisions
	// and in-process callers).
	httpSelects atomic.Int64

	// inFlight guards POST /v1/run: one HTTP-initiated phase at a time.
	inFlight atomic.Bool

	mu      sync.Mutex
	lastRun *RunSummary //capi:guardedby mu
	lastErr string      //capi:guardedby mu
}

// New builds a control-plane server over a started instance. app names the
// workload in /v1/status and in ICs compiled from include lists.
func New(session *capi.Session, inst *capi.Instance, app string) *Server {
	s := &Server{
		session: session,
		inst:    inst,
		app:     app,
		started: time.Now(),
		mux:     http.NewServeMux(),
		hub:     NewHub(),

		instrumented: inst.Status().Instrumented,
	}
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/selection", s.handleSelection)
	s.mux.HandleFunc("POST /v1/select", s.handleSelect)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("POST /v1/adapt", s.handleAdapt)
	s.mux.HandleFunc("POST /v1/sampling", s.handleSampling)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	// TTL expiries and breaker trips originate inside the instance (timer
	// goroutine / trip goroutine), not in a handler; surface them on the
	// SSE stream so remote observers see the revert or detach the moment
	// it happens.
	inst.SetTTLNotify(func(e capi.TTLExpiry) { s.hub.Publish("expired", e) })
	inst.SetBreakerNotify(func(e capi.BreakerEvent) { s.hub.Publish("breaker", e) })
	return s
}

// ServeHTTP implements http.Handler. It bounds the body before any handler
// sees it, so no endpoint can read past maxBodyBytes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Shutdown disconnects the SSE subscribers so their handlers return.
// Register it with http.Server.RegisterOnShutdown: graceful shutdown waits
// for in-flight handlers but never cancels their request contexts, so an
// open /v1/events stream would otherwise hold Shutdown until its timeout.
func (s *Server) Shutdown() { s.hub.Shutdown() }

// WriteJSON answers code with v as an indented JSON document. With
// WriteErr and WriteFieldErr it is the reply format of every control-plane
// endpoint, this server's and the fleet coordinator's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	e := replyPool.Get().(*replyEncoder)
	e.buf.Reset()
	if e.enc.Encode(v) == nil {
		w.Write(e.buf.Bytes()) //nolint:errcheck // client gone
	}
	if e.buf.Cap() <= maxPooledReply {
		replyPool.Put(e)
	}
}

// replyEncoder is an indenting encoder with the storage it encodes into. A
// select reply is ~75 KB at openfoam scale; encoding each into fresh buffers
// was a third of the handler.
type replyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledReply keeps one outsized reply from pinning its buffer.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any {
	e := &replyEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// WriteErr answers code with an {"error": ...} body.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteFieldErr is WriteErr with the offending request field named in the
// body — every 400 a client can fix by editing one field uses it.
func WriteFieldErr(w http.ResponseWriter, code int, field, format string, args ...any) {
	WriteJSON(w, code, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"field": field,
	})
}

// HealthzResponse is the GET /v1/healthz document: the liveness probe the
// fleet coordinator hits. It deliberately reads nothing from the instance —
// no instance lock, no runtime snapshot — so it answers even while a phase
// executes and a reconfigure holds the instance mutex.
type HealthzResponse struct {
	OK            bool    `json:"ok"`
	App           string  `json:"app"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthzResponse{
		OK:            true,
		App:           s.app,
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// StatusResponse is the GET /v1/status document, and the read model GET
// /metrics is rendered from (metrics.go).
type StatusResponse struct {
	App string `json:"app"`
	capi.InstanceStatus
	HTTPSelects   int64   `json:"httpSelects"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	SSEClients    int     `json:"sseClients"`
	// SessionBuild is the wall-clock time the session's start-up took.
	SessionBuild capi.BuildStats `json:"sessionBuild"`
	// PipelineHint appears when the async pipeline has shed load
	// (droppedAsync > 0): ring-sizing guidance naming the next
	// power-of-two -async-buf. The rings cannot grow on a live run — the
	// single-writer contract pins their memory — so the hint is restart
	// advice, not a knob.
	PipelineHint string `json:"pipelineHint,omitempty"`
	// LastRun summarizes the most recently completed phase. It lags the
	// Runs counter by one instant: the instance counts the phase before
	// the server records the summary, so a poller that needs the summary
	// should wait for LastRun.Phase == Runs (or LastRun non-nil), not for
	// Runs alone.
	LastRun   *RunSummary `json:"lastRun,omitempty"`
	LastError string      `json:"lastError,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.status())
}

func (s *Server) status() StatusResponse {
	resp := StatusResponse{
		App:            s.app,
		InstanceStatus: s.inst.Status(),
		HTTPSelects:    s.httpSelects.Load(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		SSEClients:     s.hub.Clients(),
		SessionBuild:   s.session.BuildStats(),
	}
	if resp.Async && resp.DroppedAsync > 0 && resp.AsyncBuf > 0 {
		// AsyncBuf is already a power of two (the pipeline rounds up), so
		// the next rung is exactly one doubling.
		resp.PipelineHint = fmt.Sprintf(
			"async back-pressure dropped %d enter/exit pairs with -async-buf %d; restart with -async-buf %d (next power of two)",
			resp.DroppedAsync, resp.AsyncBuf, resp.AsyncBuf*2)
	}
	s.mu.Lock()
	resp.LastRun = s.lastRun
	resp.LastError = s.lastErr
	s.mu.Unlock()
	return resp
}

// SelectionResponse is the GET /v1/selection document.
type SelectionResponse struct {
	Count     int      `json:"count"`
	Functions []string `json:"functions"`
}

func (s *Server) handleSelection(w http.ResponseWriter, r *http.Request) {
	names := s.inst.ActiveFunctionNames()
	WriteJSON(w, http.StatusOK, SelectionResponse{Count: len(names), Functions: names})
}

// SelectRequest is the POST /v1/select body. At most one selection source
// may be set; a non-JSON body is treated as raw spec-DSL source. Include /
// IncludeIDs may be combined (one IC), mirroring ic.Config. Backends may
// accompany any selection source — or stand alone — to swap the
// measurement-backend set of the live instance before the re-selection.
type SelectRequest struct {
	// Spec is CaPI spec-DSL source, compiled via Session.Select.
	Spec string `json:"spec,omitempty"`
	// Builtin names a built-in specification ("mpi", "mpi coarse",
	// "kernels", "kernels coarse").
	Builtin string `json:"builtin,omitempty"`
	// Include lists function names to instrument directly (no spec
	// evaluation); IncludeIDs adds packed XRay IDs.
	Include    []string `json:"include,omitempty"`
	IncludeIDs []int32  `json:"includeIDs,omitempty"`
	// Backends swaps the measurement-backend set by registry name
	// ("talp", "extrae", …): detaching backends close their open state
	// with synthetic exits, the sleds and the selection stay untouched.
	// Unknown names are rejected with the registered list.
	Backends []string `json:"backends,omitempty"`
	// TTL makes the selection ephemeral: a Go duration string ("2s",
	// "1m30s") after which the instance auto-reverts to the pre-override
	// selection (delivered as a normal Reconfigure, visible on the SSE
	// stream as an "expired" event). A newer explicit select cancels the
	// pending revert; a second TTL'd select keeps the original base and
	// moves the deadline. Requires a selection source in the same request.
	TTL string `json:"ttl,omitempty"`
}

// SelectionSummary carries the Table I statistics of a compiled selection.
type SelectionSummary struct {
	Pre      int     `json:"pre"`
	Selected int     `json:"selected"`
	Added    int     `json:"added"`
	Seconds  float64 `json:"seconds"`
}

// SelectResponse is the POST /v1/select result: the live re-selection's
// delta report (with per-backend synthetic-exit counts) plus, when a spec
// was compiled, the selection statistics, and — when the request swapped
// the backend set — the swap report. TTLSeconds echoes the accepted TTL
// for an ephemeral selection.
type SelectResponse struct {
	Report      capi.ReconfigReport     `json:"report"`
	Active      int                     `json:"active"`
	Selection   *SelectionSummary       `json:"selection,omitempty"`
	BackendSwap *capi.BackendSwapReport `json:"backendSwap,omitempty"`
	Backends    []string                `json:"backends,omitempty"`
	TTLSeconds  float64                 `json:"ttlSeconds,omitempty"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		WriteErr(w, BodyErrStatus(err), "reading body: %v", err)
		return
	}
	var req SelectRequest
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ctype == "application/json" {
		if err := json.Unmarshal(body, &req); err != nil {
			WriteFieldErr(w, http.StatusBadRequest, "body", "decoding request: %v", err)
			return
		}
	} else {
		// Raw body = spec-DSL source (curl --data-binary @my.capi).
		req.Spec = string(body)
	}
	hasSelection := strings.TrimSpace(req.Spec) != "" || req.Builtin != "" ||
		len(req.Include) > 0 || len(req.IncludeIDs) > 0
	if !hasSelection && len(req.Backends) == 0 {
		WriteErr(w, http.StatusBadRequest, "empty selection: provide spec source, a builtin name, an include list or a backends swap")
		return
	}
	// Parse the TTL before touching the instance: an unparsable (or
	// selection-less) TTL is a 400 that must leave everything untouched.
	var ttl time.Duration
	if req.TTL != "" {
		ttl, err = time.ParseDuration(req.TTL)
		if err != nil {
			WriteFieldErr(w, http.StatusBadRequest, "ttl", "parsing ttl: %v", err)
			return
		}
		if ttl <= 0 {
			WriteFieldErr(w, http.StatusBadRequest, "ttl", "ttl must be positive, got %q", req.TTL)
			return
		}
		if !hasSelection {
			WriteFieldErr(w, http.StatusBadRequest, "ttl", "ttl requires a selection to revert from (a backends swap alone cannot expire)")
			return
		}
	}
	if !s.instrumented {
		WriteErr(w, http.StatusConflict, "instance is not instrumented")
		return
	}

	// Compile and validate the selection *before* touching the instance: a
	// 400 (bad spec, typo'd include, unknown backend) must imply nothing
	// was applied — a backend swap that preceded a failed compile would
	// leave the instance mutated behind an error response.
	var sel *capi.Selection
	var summary *SelectionSummary
	if hasSelection {
		switch {
		case strings.TrimSpace(req.Spec) != "" || req.Builtin != "":
			src := req.Spec
			specField := "spec"
			if strings.TrimSpace(src) == "" {
				specField = "builtin"
				src, err = experiments.SpecSource(req.Builtin)
				if err != nil {
					WriteFieldErr(w, http.StatusBadRequest, "builtin", "builtin %q: %v", req.Builtin, err)
					return
				}
			}
			sel, err = s.session.Select(src)
			if err != nil {
				// The compile error (lexer/parser/selector) goes back verbatim
				// so the remote user can fix the spec.
				WriteFieldErr(w, http.StatusBadRequest, specField, "compiling spec: %v", err)
				return
			}
			summary = &SelectionSummary{Pre: sel.Pre, Selected: sel.Selected, Added: sel.Added, Seconds: sel.Seconds}
		default:
			// A typo'd name would resolve to nothing and the reconfigure would
			// silently unpatch it — reject unknown names instead, like the spec
			// path rejects a spec that does not compile.
			if unknown := s.inst.UnknownFunctionNames(req.Include); len(unknown) > 0 {
				WriteFieldErr(w, http.StatusBadRequest, "include", "unknown function name(s): %s", strings.Join(unknown, ", "))
				return
			}
			cfg := ic.New(s.app, "http", req.Include).WithIncludeIDs(req.IncludeIDs)
			sel = &capi.Selection{IC: cfg, Selected: cfg.Len()}
		}
	}

	// The backend swap rides along with (or without) the re-selection: the
	// set is exchanged before the reconfigure so the new backends observe
	// the new selection's events from the start.
	var swap *capi.BackendSwapReport
	if len(req.Backends) > 0 {
		rep, err := s.inst.SetBackends(req.Backends)
		if err != nil {
			WriteFieldErr(w, http.StatusBadRequest, "backends", "swapping backends: %v", err)
			return
		}
		swap = &rep
		s.hub.Publish("backends", rep)
	}
	if !hasSelection {
		st := s.inst.Status()
		WriteJSON(w, http.StatusOK, SelectResponse{
			Active:      st.ActiveFunctions,
			BackendSwap: swap,
			Backends:    st.Backends,
		})
		return
	}

	var rep capi.ReconfigReport
	if ttl > 0 {
		rep, err = s.inst.ReconfigureTTL(sel, ttl)
	} else {
		rep, err = s.inst.Reconfigure(sel)
	}
	if errors.Is(err, capi.ErrNoTTLBase) {
		WriteFieldErr(w, http.StatusConflict, "ttl", "%v", err)
		return
	}
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, "reconfigure: %v", err)
		return
	}
	s.httpSelects.Add(1)
	s.hub.Publish("reconfigure", rep)
	WriteJSON(w, http.StatusOK, SelectResponse{
		Report:      rep,
		Active:      rep.Active,
		Selection:   summary,
		BackendSwap: swap,
		Backends:    s.inst.Backends(),
		TTLSeconds:  ttl.Seconds(),
	})
}

// RunRequest is the POST /v1/run body (optional). Wait=false returns 202
// immediately and executes the phase in the background; its completion is
// observable via /v1/status (lastRun) and the SSE "run" event.
type RunRequest struct {
	Wait *bool `json:"wait,omitempty"`
}

// RunSummary is the scalar slice of a capi.RunResult — the measurement
// reports stay on GET /v1/report, where they can also be scraped mid-phase.
type RunSummary struct {
	Phase        int      `json:"phase"`
	InitSeconds  float64  `json:"initSeconds"`
	TotalSeconds float64  `json:"totalSeconds"`
	Events       int64    `json:"events"`
	Patched      int      `json:"patched"`
	ActiveFuncs  int      `json:"activeFuncs"`
	Reconfigs    int      `json:"reconfigs"`
	WallSeconds  float64  `json:"wallSeconds"`
	DroppedFuncs []string `json:"droppedFuncs,omitempty"`
}

func summarize(res *capi.RunResult, phase int) *RunSummary {
	return &RunSummary{
		Phase:        phase,
		InitSeconds:  res.InitSeconds,
		TotalSeconds: res.TotalSeconds,
		Events:       res.Events,
		Patched:      res.Patched,
		ActiveFuncs:  res.ActiveFuncs,
		Reconfigs:    res.Reconfigs,
		WallSeconds:  res.WallSeconds,
		DroppedFuncs: res.DroppedFuncs,
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	body, err := io.ReadAll(r.Body)
	if err != nil {
		WriteErr(w, BodyErrStatus(err), "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			WriteErr(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
	}
	if !s.inFlight.CompareAndSwap(false, true) {
		WriteErr(w, http.StatusConflict, "a phase is already executing")
		return
	}
	if req.Wait == nil || *req.Wait {
		defer s.inFlight.Store(false)
		sum, err := s.runPhase()
		if err != nil {
			WriteErr(w, http.StatusInternalServerError, "run: %v", err)
			return
		}
		WriteJSON(w, http.StatusOK, sum)
		return
	}
	go func() {
		defer s.inFlight.Store(false)
		s.runPhase() //nolint:errcheck // recorded in lastErr
	}()
	WriteJSON(w, http.StatusAccepted, map[string]any{"started": true})
}

// runPhase executes one phase and records its outcome for /v1/status.
func (s *Server) runPhase() (*RunSummary, error) {
	res, err := s.inst.Run()
	phase := s.inst.Status().Runs
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.lastErr = err.Error()
		return nil, err
	}
	s.lastErr = ""
	s.lastRun = summarize(res, phase)
	s.hub.Publish("run", s.lastRun)
	return s.lastRun, nil
}

// ReportEntry is one backend's report inside the GET /v1/report envelope:
// the self-describing kind tag plus the report document itself.
type ReportEntry struct {
	Kind   string          `json:"kind"`
	Report json.RawMessage `json:"report"`
}

// ReportResponse is the GET /v1/report envelope: one entry per attached
// measurement backend that has produced a report, keyed by backend name.
// Sampling carries the sampler's policies and conservation counters when a
// sampling table is (or was) installed — every attached backend sees the
// same sampled stream, so the counters apply to each entry alike.
type ReportResponse struct {
	Backends []string               `json:"backends"`
	Reports  map[string]ReportEntry `json:"reports"`
	Sampling *capi.SamplingSnapshot `json:"sampling,omitempty"`
	// Breaker carries the panic-barrier stats of every backend that ever
	// panicked; DetachedBackends lists the backends the circuit breaker
	// removed, DroppedPanicked the enters the barriers swallowed (part of
	// the conservation identity alongside Sampling's counters).
	Breaker          []capi.BreakerStatus `json:"breaker,omitempty"`
	DetachedBackends []string             `json:"detachedBackends,omitempty"`
	DroppedPanicked  int64                `json:"droppedPanicked,omitempty"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	st := s.inst.Status()
	resp := ReportResponse{
		Backends:         st.Backends,
		Reports:          map[string]ReportEntry{},
		Sampling:         st.Sampling,
		Breaker:          st.Breaker,
		DetachedBackends: st.DetachedBackends,
		DroppedPanicked:  st.DroppedPanicked,
	}
	for name, rep := range s.inst.Reports() {
		raw, err := rep.MarshalJSON()
		if err != nil {
			WriteErr(w, http.StatusInternalServerError, "rendering %s report: %v", name, err)
			return
		}
		resp.Reports[name] = ReportEntry{Kind: rep.Kind(), Report: raw}
	}
	if len(resp.Reports) == 0 {
		WriteErr(w, http.StatusNotFound, "no report yet (backends: %s)", strings.Join(resp.Backends, ", "))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// AdaptRequest is the POST /v1/adapt body; zero fields keep their current
// value, MaxReconfigs < 0 lifts the bound. SLOTargetP99Ms > 0 switches the
// controller to tail-latency SLO mode ("p99 ≤ X ms with maximum coverage",
// driven by the middleware's per-endpoint request latencies); a negative
// value switches back to overhead-budget mode.
type AdaptRequest struct {
	Budget         float64 `json:"budget,omitempty"`
	EpochSeconds   float64 `json:"epochSeconds,omitempty"`
	MinMeanNs      int64   `json:"minMeanNs,omitempty"`
	MaxReconfigs   int     `json:"maxReconfigs,omitempty"`
	SLOTargetP99Ms float64 `json:"sloTargetP99Ms,omitempty"`
	SLOWindow      int     `json:"sloWindow,omitempty"`
	SLOMinSamples  int     `json:"sloMinSamples,omitempty"`
}

// AdaptResponse echoes the effective tuning after the retune.
type AdaptResponse struct {
	Budget         float64 `json:"budget"`
	EpochSeconds   float64 `json:"epochSeconds"`
	MinMeanNs      int64   `json:"minMeanNs"`
	MaxReconfigs   int     `json:"maxReconfigs"`
	SLOTargetP99Ms float64 `json:"sloTargetP99Ms,omitempty"`
	SLOWindow      int     `json:"sloWindow,omitempty"`
	SLOMinSamples  int     `json:"sloMinSamples,omitempty"`
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	var req AdaptRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteErr(w, BodyErrStatus(err), "decoding request: %v", err)
		return
	}
	var sloNs int64
	switch {
	case req.SLOTargetP99Ms > 0:
		sloNs = int64(req.SLOTargetP99Ms * float64(vtime.Millisecond))
	case req.SLOTargetP99Ms < 0:
		sloNs = -1
	}
	got, err := s.inst.Retune(capi.AdaptOptions{
		Budget:         req.Budget,
		Epoch:          vtime.Seconds(req.EpochSeconds),
		MinMeanNs:      req.MinMeanNs,
		MaxReconfigs:   req.MaxReconfigs,
		SLOTargetP99Ns: sloNs,
		SLOWindow:      req.SLOWindow,
		SLOMinSamples:  req.SLOMinSamples,
	})
	var pe *dyncapi.PolicyError
	if errors.As(err, &pe) {
		WriteFieldErr(w, http.StatusBadRequest, pe.Field, "%v", err)
		return
	}
	if err != nil {
		WriteErr(w, http.StatusConflict, "%v", err)
		return
	}
	resp := AdaptResponse{
		Budget:       got.Budget,
		EpochSeconds: float64(got.Epoch) / float64(vtime.Second),
		MinMeanNs:    got.MinMeanNs,
		MaxReconfigs: got.MaxReconfigs,
	}
	if got.SLOTargetP99Ns > 0 {
		resp.SLOTargetP99Ms = float64(got.SLOTargetP99Ns) / float64(vtime.Millisecond)
		resp.SLOWindow = got.SLOWindow
		resp.SLOMinSamples = got.SLOMinSamples
	}
	WriteJSON(w, http.StatusOK, resp)
}

// SamplingRequest is the POST /v1/sampling body: the default-policy fields
// inline plus optional per-function overrides. The whole table is replaced
// atomically; an all-zero request clears every policy. Invalid values and
// unknown function names are rejected with 400 *before* anything is
// applied — a 400 implies the previous table is untouched.
type SamplingRequest struct {
	// Stride delivers 1 of every N enters per rank (<=1 = all).
	Stride int `json:"stride,omitempty"`
	// MinDurationNs suppresses pairs predicted shorter than this.
	MinDurationNs int64 `json:"minDurationNs,omitempty"`
	// CollapseRedundant collapses repeated identical short calls;
	// RedundantGapNs is the repeat window (0 = default).
	CollapseRedundant bool  `json:"collapseRedundant,omitempty"`
	RedundantGapNs    int64 `json:"redundantGapNs,omitempty"`
	// Functions overrides the default policy per function name.
	Functions map[string]capi.SamplingPolicy `json:"functions,omitempty"`
	// TTL makes the table ephemeral: a Go duration string after which the
	// previous table is restored (SSE "expired" event). A newer explicit
	// POST /v1/sampling cancels the pending revert.
	TTL string `json:"ttl,omitempty"`
}

// samplingField maps a dyncapi.PolicyError field to the SamplingRequest
// JSON field it arrived in (the runtime calls the per-function override
// map "funcs"; the HTTP API calls it "functions").
func samplingField(field string) string {
	if field == "funcs" {
		return "functions"
	}
	return field
}

func (s *Server) handleSampling(w http.ResponseWriter, r *http.Request) {
	var req SamplingRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteFieldErr(w, BodyErrStatus(err), "body", "decoding request: %v", err)
		return
	}
	var ttl time.Duration
	if req.TTL != "" {
		var err error
		ttl, err = time.ParseDuration(req.TTL)
		if err != nil {
			WriteFieldErr(w, http.StatusBadRequest, "ttl", "parsing ttl: %v", err)
			return
		}
		if ttl <= 0 {
			WriteFieldErr(w, http.StatusBadRequest, "ttl", "ttl must be positive, got %q", req.TTL)
			return
		}
	}
	if !s.instrumented {
		WriteErr(w, http.StatusConflict, "instance is not instrumented")
		return
	}
	cfg := capi.SamplingOptions{Funcs: req.Functions}
	def := capi.SamplingPolicy{
		Stride:            req.Stride,
		MinDurationNs:     req.MinDurationNs,
		CollapseRedundant: req.CollapseRedundant,
		RedundantGapNs:    req.RedundantGapNs,
	}
	if def != (capi.SamplingPolicy{}) {
		cfg.Default = &def
	}
	// SetSampling validates the whole config — policy values and function
	// names — before touching the table, so a 400 here means no mutation.
	// A validation failure names the offending field (dyncapi.PolicyError).
	var err error
	if ttl > 0 {
		err = s.inst.SetSamplingTTL(cfg, ttl)
	} else {
		err = s.inst.SetSampling(cfg)
	}
	if err != nil {
		var pe *dyncapi.PolicyError
		if errors.As(err, &pe) {
			WriteFieldErr(w, http.StatusBadRequest, samplingField(pe.Field), "%v", err)
			return
		}
		WriteErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := s.inst.Sampling()
	s.hub.Publish("sampling", snap)
	WriteJSON(w, http.StatusOK, snap)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"app": s.app,
		"endpoints": []string{
			"GET /v1/status", "GET /v1/selection", "POST /v1/select",
			"POST /v1/run", "GET /v1/report", "POST /v1/adapt",
			"POST /v1/sampling", "GET /v1/events", "GET /v1/healthz",
			"GET /metrics",
		},
	})
}

// handleMetrics renders the status document as Prometheus series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.status()
	var e Exposition
	e.Status("", &st)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.Write(w)
}
