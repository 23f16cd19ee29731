// Command capi-serve exposes a live, runtime-adaptable instrumentation
// instance over HTTP: it prepares a workload session, patches the initial
// selection in, and then serves the control plane (internal/ctl) so the
// selection can be changed, phases executed and reports scraped remotely —
// the Fig. 1 loop as a long-lived service.
//
// Usage:
//
//	capi-serve -app lulesh -builtin mpi -backend talp
//	capi-serve -app openfoam -scale 0.1 -builtin "mpi coarse" -backend scorep
//	capi-serve -app quickstart -backend extrae -addr 127.0.0.1:7070
//	capi-serve -app lulesh -builtin mpi -backend talp,extrae   # fan-out
//	capi-serve -app lulesh -full -adapt -budget 0.01
//	capi-serve -app lulesh -builtin mpi -fleet http://127.0.0.1:8070  # join a fleet
//	capi-serve -app webservice -full -http-workers 4 -slo-p99-ms 8    # serve traffic
//
// With -app webservice and -http-workers, the synthetic web service is
// mounted under /app/ (e.g. GET /app/api/feed): every request executes
// its handler's instrumented call tree, and -slo-p99-ms switches the
// adaptation controller to tail-latency mode — it demotes and deselects
// per-endpoint instrumentation until each endpoint's p99 meets the
// target, keeping as much coverage as the SLO affords.
//
// -backend takes a comma-separated list of registry names (fail-fast on
// unknown ones); with several, one run feeds every backend and GET
// /v1/report returns the envelope keyed by backend name.
//
// Then, from anywhere:
//
//	curl localhost:7070/v1/status
//	curl -X POST -H 'Content-Type: application/json' \
//	     -d '{"builtin":"mpi coarse"}' localhost:7070/v1/select
//	curl -X POST -d '{"wait":false}' localhost:7070/v1/run
//	curl localhost:7070/metrics
//
// The server shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/experiments"
	"capi/internal/fleet"
	"capi/internal/vtime"
	"capi/middleware"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		app      = flag.String("app", "quickstart", "workload: quickstart, lulesh, openfoam or webservice")
		scale    = flag.Float64("scale", 0.1, "openfoam call-graph scale")
		builtin  = flag.String("builtin", "mpi", `initial built-in spec name (e.g. "mpi", "kernels coarse")`)
		spec     = flag.String("spec", "", "initial specification file (overrides -builtin)")
		full     = flag.Bool("full", false, "patch every sled initially (xray full)")
		backend  = flag.String("backend", "talp", "comma-separated measurement backends (see capi.RegisteredBackends; e.g. talp,extrae)")
		ranks    = flag.Int("ranks", 4, "simulated MPI ranks")
		adapt    = flag.Bool("adapt", false, "enable the live overhead-budget controller")
		budget   = flag.Float64("budget", 0, "overhead budget per epoch as a fraction (implies -adapt)")
		epoch    = flag.Float64("epoch", 0, "adaptation epoch length in virtual seconds (implies -adapt)")
		sample   = flag.Int("sample", 0, "initial 1-in-N stride sampling (0 = unsampled; change live via POST /v1/sampling)")
		suppress = flag.Int64("suppress-ns", 0, "initial min-duration suppression threshold in virtual ns")
		async    = flag.Bool("async", false, "asynchronous event pipeline: backends consume off the dispatch hot path (incompatible with -adapt)")
		asyncBuf = flag.Int("async-buf", 0, "async: per-rank ring capacity in events (0 = default 65536)")
		panicLim = flag.Int("panic-limit", 0, "per-backend circuit breaker: recovered panics before auto-detach (0 = default 3, negative = never detach)")
		httpWork = flag.Int("http-workers", 0, "serve the synthetic web service under /app/ with this many request-context workers (requires -app webservice)")
		sloP99   = flag.Float64("slo-p99-ms", 0, "tail-latency SLO: adapt each endpoint's instrumentation until its p99 is at or under this many ms (implies -adapt; requires -http-workers)")
		fleetURL = flag.String("fleet", "", "capi-fleet coordinator base URL: self-register and heartbeat (e.g. http://127.0.0.1:8070)")
		fleetNm  = flag.String("fleet-name", "", "member name to register under (default: the advertised host:port)")
		advert   = flag.String("advertise", "", "base URL the coordinator should reach this member at (default http://<-addr>)")
	)
	flag.Parse()

	// Fail fast on a typo'd backend name, before any session is built.
	backends, err := capi.ParseBackends(*backend)
	if err != nil {
		fatal(err)
	}

	session, err := capi.NewAppSession(*app, *scale)
	if err != nil {
		fatal(err)
	}

	var sel *capi.Selection
	if !*full {
		src, err := specSource(*spec, *builtin)
		if err != nil {
			fatal(err)
		}
		sel, err = session.Select(src)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "capi-serve: initial selection: %d functions (%d pre, %d added)\n",
			sel.IC.Len(), sel.Pre, sel.Added)
	}

	if *sloP99 > 0 && *httpWork <= 0 {
		fatal(errors.New("-slo-p99-ms needs request traffic to measure: set -http-workers (and -app webservice)"))
	}
	if *httpWork > 0 && *app != "webservice" {
		fatal(fmt.Errorf("-http-workers serves the synthetic web service; use -app webservice (got -app %s)", *app))
	}

	runOpts := capi.RunOptions{
		Backends:    backends,
		Ranks:       *ranks,
		PatchAll:    *full,
		Async:       *async,
		AsyncBuf:    *asyncBuf,
		PanicLimit:  *panicLim,
		HTTPWorkers: *httpWork,
	}
	if *adapt || *budget > 0 || *epoch > 0 || *sloP99 > 0 {
		runOpts.Adapt = &capi.AdaptOptions{
			Budget:         *budget,
			Epoch:          vtime.Seconds(*epoch),
			SLOTargetP99Ns: int64(*sloP99 * float64(vtime.Millisecond)),
		}
	}
	if *sample > 0 || *suppress > 0 {
		runOpts.Sampling = &capi.SamplingOptions{Default: &capi.SamplingPolicy{
			Stride:        *sample,
			MinDurationNs: *suppress,
		}}
	}
	inst, err := session.Start(sel, runOpts)
	if err != nil {
		fatal(err)
	}
	st := inst.Status()
	fmt.Fprintf(os.Stderr, "capi-serve: %s up: %d functions patched, T_init %.2fs (virtual)\n",
		*app, st.Patched, st.InitSeconds)

	cp := ctl.New(session, inst, *app)
	var handler http.Handler = cp
	if *httpWork > 0 {
		svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: *httpWork})
		if err != nil {
			fatal(err)
		}
		root := http.NewServeMux()
		root.Handle("/app/", http.StripPrefix("/app", svc))
		root.Handle("/", cp)
		handler = root
		fmt.Fprintf(os.Stderr, "capi-serve: web service under /app/ (%d workers", *httpWork)
		if *sloP99 > 0 {
			fmt.Fprintf(os.Stderr, ", SLO p99 <= %gms", *sloP99)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Open SSE streams would otherwise hold Shutdown until its timeout.
	srv.RegisterOnShutdown(cp.Shutdown)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "capi-serve: control plane on http://%s (GET /v1/status, POST /v1/select, POST /v1/run, GET /v1/report, POST /v1/sampling, GET /metrics, GET /v1/events)\n", *addr)

	if *fleetURL != "" {
		self := *advert
		if self == "" {
			self = "http://" + *addr
		}
		go fleet.Heartbeat(ctx, strings.TrimRight(*fleetURL, "/"),
			fleet.RegisterRequest{URL: self, Name: *fleetNm, App: *app},
			fleet.DefaultHeartbeatInterval,
			func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "capi-serve: "+format+"\n", args...)
			})
	}

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "capi-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fatal(err)
		}
		// Drain and stop the async consumer pool (a no-op in inline mode);
		// the HTTP server is down, so no phase can start anymore.
		inst.Close()
		st := inst.Status()
		fmt.Fprintf(os.Stderr, "capi-serve: served %d phases, %d re-selections, %d events\n",
			st.Runs, st.Reconfigs, st.Events)
	}
}

func specSource(specFile, builtin string) (string, error) {
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	return experiments.SpecSource(builtin)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capi-serve:", err)
	os.Exit(1)
}
