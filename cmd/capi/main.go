// Command capi is the front end to the Fig. 1 loop: select functions with a
// specification, patch them in at start-up, measure and adapt — as a
// one-shot run or as a long-lived service steered over HTTP.
//
//	capi select -app openfoam -builtin "kernels coarse" -format scorep -o of.filter
//	capi select -cg lulesh.cg.json -builtin mpi     # no inlining compensation
//	capi run -app lulesh -builtin mpi -backend talp,extrae -ranks 4
//	capi run -app openfoam -full -backend none -budget 0.0001  # live narrowing
//	capi serve -app webservice -full -http-workers 4 -slo-p99-ms 8
//	capi fleet -addr 127.0.0.1:8070                 # members join with serve -fleet
//	capi paper -scale 1.0                           # Tables I/II, §VI-B facts
//	capi cg -app lulesh -o lulesh.cg.json           # MetaCG-style call graph
//	capi score -app lulesh -ranks 4 -o initial.filter
//
// One selection rule holds for select, run and serve: at most one of -ic,
// -spec, -builtin and -full (select takes only the specification flags),
// and -builtin mpi when none is given. run and serve bind one set of run
// flags straight into capi.RunOptions. serve and fleet shut down
// gracefully on SIGINT/SIGTERM. Errors print "capi <command>: …" and exit
// 1; usage errors exit 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	capi "capi"
	"capi/internal/callgraph"
	"capi/internal/core"
	"capi/internal/ctl"
	"capi/internal/experiments"
	"capi/internal/fleet"
	"capi/internal/ic"
	"capi/internal/report"
	"capi/internal/scorep"
	"capi/internal/vtime"
	"capi/middleware"
)

const usage = `usage: capi <command> [flags]

commands:
  select  choose functions with a specification and write the IC
  run     execute a workload under the selection and print its reports
  serve   serve a live instance's control plane over HTTP
  fleet   coordinate many serve members as one fleet
  paper   print the paper's Tables I and II and the §VI-B facts
  cg      write a workload's whole-program call graph
  score   suggest a Score-P filter from a full-instrumentation survey run

Run 'capi <command> -h' for a command's flags.
`

// A command binds its flags on fs and returns what runs once they parse.
type command func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error

var commands = map[string]command{
	"select": cmdSelect,
	"run":    cmdRun,
	"serve":  cmdServe,
	"fleet":  cmdFleet,
	"paper":  cmdPaper,
	"cg":     cmdCG,
	"score":  cmdScore,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "capi: unknown command %q\n", args[0])
		}
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("capi "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := commands[args[0]](fs)
	switch err := fs.Parse(args[1:]); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2 // the flag package has printed the error and the usage
	}
	err := exclusive(fs)
	if err == nil {
		err = exec(stdout, stderr)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "capi %s: %v\n", args[0], err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError marks an invocation error: exit status 2 instead of 1.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// exclusive is the one selection rule: at most one of -ic, -spec, -builtin
// and -full; selectFlags default to -builtin mpi.
func exclusive(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ic", "spec", "builtin", "full":
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 1 {
		return usagef("%s and %s are mutually exclusive", set[0], set[1])
	}
	return nil
}

// newAppSession builds the workload session; tests replace it to prove a
// check fails before any session is built.
var newAppSession = capi.NewAppSession

// appFlags are the workload flags.
type appFlags struct {
	app   string
	scale float64
}

func (a *appFlags) bind(fs *flag.FlagSet) {
	fs.StringVar(&a.app, "app", "quickstart", "workload: quickstart, lulesh, openfoam or webservice")
	scaleFlag(fs, &a.scale)
}

func scaleFlag(fs *flag.FlagSet, p *float64) {
	fs.Float64Var(p, "scale", 0.1, "OpenFOAM call-graph scale (1.0 = paper size)")
}

func ranksFlag(fs *flag.FlagSet, p *int) { fs.IntVar(p, "ranks", 4, "simulated MPI ranks") }

func outFlag(fs *flag.FlagSet) *string { return fs.String("o", "", "output file (default stdout)") }

// writeOut hands write the -o file, or stdout when path is empty. The file
// is created only here, after every check has passed, so a failed
// invocation leaves an existing file untouched.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile decodes the file at path with decode.
func readFile[T any](path string, decode func(io.Reader) (T, error)) (v T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	return decode(f)
}

// selectFlags are the app flags plus the selection. select binds only the
// specification (-spec, -builtin); runFlags add -ic and -full.
type selectFlags struct {
	appFlags
	spec, builtin, icFile string
	full                  bool
}

func (f *selectFlags) bind(fs *flag.FlagSet) {
	f.appFlags.bind(fs)
	fs.StringVar(&f.spec, "spec", "", "specification file to select with")
	fs.StringVar(&f.builtin, "builtin", "mpi", `built-in spec: "mpi", "mpi coarse", "kernels" or "kernels coarse"`)
}

// specSource is the specification text of -spec or -builtin.
func (f *selectFlags) specSource() (string, error) {
	if f.spec == "" {
		return experiments.SpecSource(f.builtin)
	}
	data, err := os.ReadFile(f.spec)
	return string(data), err
}

// selection builds the session and resolves the selection on it (nil for
// -full).
func (f *selectFlags) selection(name string, stderr io.Writer) (*capi.Session, *capi.Selection, error) {
	s, err := newAppSession(f.app, f.scale)
	if err != nil || f.full {
		return s, nil, err
	}
	if f.icFile != "" {
		cfg, err := readFile(f.icFile, ic.ReadJSON)
		if err != nil {
			return nil, nil, err
		}
		return s, &capi.Selection{IC: cfg, Selected: cfg.Len()}, nil
	}
	src, err := f.specSource()
	if err != nil {
		return nil, nil, err
	}
	sel, err := s.Select(src)
	if err != nil {
		return nil, nil, err
	}
	logSelection(stderr, name, sel)
	return s, sel, nil
}

func logSelection(stderr io.Writer, name string, sel *capi.Selection) {
	fmt.Fprintf(stderr, "capi %s: selected %d functions (%d pre, %d added) in %.2fs\n",
		name, sel.IC.Len(), sel.Pre, sel.Added, sel.Seconds)
}

// runFlags are the selection plus the run flags, bound straight into the
// capi.RunOptions they configure. run and serve share them; serve alone
// binds -http-workers (opts.HTTPWorkers) and -slo-p99-ms (sloP99).
type runFlags struct {
	selectFlags
	opts          capi.RunOptions
	adaptOpts     capi.AdaptOptions
	trace         capi.TraceOptions
	sampling      capi.SamplingPolicy
	adapt         bool
	epoch, sloP99 float64
}

func (f *runFlags) bind(fs *flag.FlagSet) {
	f.selectFlags.bind(fs)
	fs.StringVar(&f.icFile, "ic", "", "instrumentation configuration (JSON) to apply")
	fs.BoolVar(&f.full, "full", false, "patch every sled (xray full)")
	// A typo'd backend name fails here, before any session is built.
	f.opts.Backends = []string{"talp"}
	fs.Func("backend", "comma-separated measurement backends (see capi.RegisteredBackends; e.g. talp,extrae; default talp)", func(v string) (err error) {
		f.opts.Backends, err = capi.ParseBackends(v)
		return err
	})
	ranksFlag(fs, &f.opts.Ranks)
	fs.IntVar(&f.trace.BufEvents, "trace-buf", 0, "extrae: ring capacity per rank in events (0 = default 4096)")
	fs.BoolVar(&f.opts.EmulateTALPBug, "talp-bug", false, "emulate the TALP re-entry bug (§VI-B(b)): talp reports list the regions that fail on re-entry as failedEntries")
	fs.BoolVar(&f.adapt, "adapt", false, "enable live overhead-budget adaptation")
	fs.Float64Var(&f.adaptOpts.Budget, "budget", 0, "overhead budget per epoch as a fraction (implies -adapt)")
	fs.Float64Var(&f.epoch, "epoch", 0, "adaptation epoch: the least virtual seconds between two budget evaluations, each taken at an MPI collective (implies -adapt)")
	fs.IntVar(&f.sampling.Stride, "sample", 0, "1-in-N stride sampling: deliver 1 of every N enters per function and rank (0 = unsampled; serve: change live via POST /v1/sampling)")
	fs.Int64Var(&f.sampling.MinDurationNs, "suppress-ns", 0, "suppress enter/exit pairs predicted shorter than this many virtual ns (exact drop accounting)")
	fs.BoolVar(&f.sampling.CollapseRedundant, "collapse-redundant", false, "collapse repeated identical short calls into a count+aggregate")
	fs.BoolVar(&f.opts.Async, "async", false, "asynchronous event pipeline: backends consume off the dispatch hot path (incompatible with budget-mode adaptation: -adapt, -budget, -epoch, whose collectives would count replayed events late; -slo-p99-ms works with it)")
	fs.IntVar(&f.opts.AsyncBuf, "async-buf", 0, "async: per-rank ring capacity in events (0 = default 65536; overflow drops whole pairs, counted)")
	fs.IntVar(&f.opts.PanicLimit, "panic-limit", 0, "per-backend circuit breaker: recovered panics before auto-detach (0 = default 3, negative = never detach)")
}

// options completes the run options with the flags that do not bind
// straight into them.
func (f *runFlags) options() capi.RunOptions {
	f.opts.PatchAll = f.full
	if f.adapt || f.adaptOpts.Budget > 0 || f.epoch > 0 || f.sloP99 > 0 {
		f.adaptOpts.Epoch = vtime.Seconds(f.epoch)
		f.adaptOpts.SLOTargetP99Ns = int64(f.sloP99 * float64(vtime.Millisecond))
		f.opts.Adapt = &f.adaptOpts
	}
	if f.trace.BufEvents > 0 {
		f.opts.Trace = &f.trace
	}
	if f.sampling != (capi.SamplingPolicy{}) {
		f.opts.Sampling = &capi.SamplingOptions{Default: &f.sampling}
	}
	return f.opts
}

// cmdSelect is the Selection stage of Fig. 1/3: a specification against a
// workload, or against an exported call graph, into an IC.
func cmdSelect(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var f selectFlags
	f.bind(fs)
	cgFile := fs.String("cg", "", "call-graph JSON file to select on instead of -app (inlining compensation is skipped: no symbol tables)")
	format := fs.String("format", "json", "IC output format: json or scorep")
	out := outFlag(fs)
	return func(stdout, stderr io.Writer) error {
		write, ok := icWriters[*format]
		if !ok {
			return usagef("unknown -format %q (want json or scorep)", *format)
		}
		var sel *capi.Selection
		var err error
		if *cgFile != "" {
			sel, err = selectOnGraph(*cgFile, &f, stderr)
		} else {
			_, sel, err = f.selection("select", stderr)
		}
		if err != nil {
			return err
		}
		label := f.spec
		if label == "" {
			label = f.builtin
		}
		cfg := ic.New(sel.IC.App, label, sel.IC.Include)
		return writeOut(*out, stdout, func(w io.Writer) error { return write(cfg, w) })
	}
}

// icWriters are the -format values of select.
var icWriters = map[string]func(*ic.Config, io.Writer) error{
	"json":   (*ic.Config).WriteJSON,
	"scorep": (*ic.Config).WriteScorePFilter,
}

func selectOnGraph(path string, f *selectFlags, stderr io.Writer) (*capi.Selection, error) {
	src, err := f.specSource()
	if err != nil {
		return nil, err
	}
	g, err := readFile(path, callgraph.ReadJSON)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stderr, "capi select: note: -cg given, inlining compensation skipped (no symbol tables)")
	res, err := core.NewEngine(g).RunSource(src, core.Options{})
	if err != nil {
		return nil, err
	}
	sel := &capi.Selection{IC: res.IC(g.Name, ""), Pre: res.Pre.Count(), Selected: res.Selected.Count(),
		Added: len(res.AddedCompensation), Seconds: res.SelectionTime.Seconds()}
	logSelection(stderr, "select", sel)
	return sel, nil
}

// cmdRun is the Instrumentation + Measurement stages of Fig. 1/3: the IC is
// patched in at start-up, events flow to every chosen backend and each
// report is printed. With -adapt the overhead-budget controller narrows the
// selection in place at MPI collectives, re-patching only the delta.
func cmdRun(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var f runFlags
	f.bind(fs)
	asJSON := fs.Bool("json", false, "emit the tool reports as one JSON envelope keyed by backend name")
	return func(stdout, stderr io.Writer) error {
		opts := f.options()
		s, sel, err := f.selection("run", stderr)
		if err != nil {
			return err
		}
		res, err := s.Run(sel, opts)
		if err != nil {
			return err
		}

		fmt.Fprintf(stderr, "capi run: T_init %.2fs, T_total %.2fs (virtual), %d functions patched, %d events\n",
			res.InitSeconds, res.TotalSeconds, res.Patched, res.Events)
		if res.DroppedAsync > 0 {
			fmt.Fprintf(stderr, "capi run: async: %d enter/exit pairs dropped under back-pressure (raise -async-buf)\n",
				res.DroppedAsync)
		}
		if res.Sampling != nil {
			c := res.Sampling.Counters
			fmt.Fprintf(stderr, "capi run: sampling: %d enters -> %d delivered (%d sampled out, %d suppressed [%.1fµs], %d collapsed [%.1fµs])\n",
				c.Enters, c.Delivered, c.SampledEvents,
				c.SuppressedPairs, float64(c.SuppressedNs)/1e3,
				c.CollapsedCalls, float64(c.CollapsedNs)/1e3)
		}
		if opts.Adapt != nil {
			fmt.Fprintf(stderr, "capi run: adapt: %d live re-selections, %d functions active (of %d initially), %d dropped, %d demoted to sampling\n",
				res.Reconfigs, res.ActiveFuncs, res.Patched, len(res.DroppedFuncs), len(res.DemotedFuncs))
			for _, ep := range res.AdaptEpochs {
				if len(ep.Demoted) > 0 || len(ep.Promoted) > 0 {
					fmt.Fprintf(stderr, "capi run: adapt: epoch %d @%s: demoted %d to 1-in-N, promoted %d back\n",
						ep.Seq, vtime.FormatSeconds(ep.AtNs), len(ep.Demoted), len(ep.Promoted))
				}
				if !ep.Reconfigured {
					continue
				}
				fmt.Fprintf(stderr, "capi run: adapt: epoch %d @%s: overhead %.1fµs > budget %.1fµs, dropped %d (re-patched only the delta: %d sleds in %d mprotect windows)\n",
					ep.Seq, vtime.FormatSeconds(ep.AtNs),
					float64(ep.OverheadNs)/1e3, float64(ep.BudgetNs)/1e3,
					len(ep.Dropped), ep.Report.Batch.UnpatchedSleds+ep.Report.Batch.PatchedSleds,
					ep.Report.Batch.BatchWindows)
			}
		}
		if *asJSON {
			// One envelope for every attached backend: name → {kind, report}.
			env := make(map[string]any, len(res.Reports))
			for name, rep := range res.Reports {
				env[name] = map[string]any{"kind": rep.Kind(), "report": rep}
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(env)
		}
		// Text mode: every backend's report, in delivery order. A report
		// without a text renderer (a custom backend's) prints as JSON.
		type textReport interface{ WriteText(io.Writer) error }
		for _, name := range res.Backends {
			rep, ok := res.Reports[name]
			if !ok {
				continue
			}
			if len(res.Reports) > 1 {
				fmt.Fprintf(stdout, "== %s (%s) ==\n", name, rep.Kind())
			}
			if tr, ok := capi.ReportOf[textReport](res.Reports, name); ok {
				err = tr.WriteText(stdout)
			} else {
				err = json.NewEncoder(stdout).Encode(rep)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// cmdServe is the Fig. 1 loop as a long-lived service: the control plane
// (internal/ctl) over a live instance re-selects, runs phases and serves
// reports remotely; with -http-workers the synthetic web service is mounted
// under /app/, and -slo-p99-ms adapts each endpoint's instrumentation until
// its p99 meets the target.
func cmdServe(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var f runFlags
	f.bind(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	fs.IntVar(&f.opts.HTTPWorkers, "http-workers", 0, "serve the synthetic web service under /app/ with this many request-context workers (requires -app webservice)")
	fs.Float64Var(&f.sloP99, "slo-p99-ms", 0, "tail-latency SLO: adapt each endpoint's instrumentation until its p99 is at or under this many ms (implies -adapt; requires -http-workers)")
	fleetURL := fs.String("fleet", "", "fleet coordinator base URL: self-register and heartbeat (e.g. http://127.0.0.1:8070)")
	fleetName := fs.String("fleet-name", "", "member name to register under (default: the advertised host:port)")
	advertise := fs.String("advertise", "", "base URL the coordinator should reach this member at (default http://<-addr>)")
	return func(stdout, stderr io.Writer) error {
		opts := f.options()
		if f.sloP99 > 0 && opts.HTTPWorkers <= 0 {
			return usagef("-slo-p99-ms needs request traffic to measure: set -http-workers (and -app webservice)")
		}
		if opts.HTTPWorkers > 0 && f.app != "webservice" {
			return usagef("-http-workers serves the synthetic web service; use -app webservice (got -app %s)", f.app)
		}
		s, sel, err := f.selection("serve", stderr)
		if err != nil {
			return err
		}
		inst, err := s.Start(sel, opts)
		if err != nil {
			return err
		}
		st := inst.Status()
		fmt.Fprintf(stderr, "capi serve: %s up: %d functions patched, T_init %.2fs (virtual)\n",
			f.app, st.Patched, st.InitSeconds)

		cp := ctl.New(s, inst, f.app)
		var handler http.Handler = cp
		if opts.HTTPWorkers > 0 {
			svc, err := middleware.New(inst, s.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: opts.HTTPWorkers})
			if err != nil {
				return err
			}
			root := http.NewServeMux()
			root.Handle("/app/", http.StripPrefix("/app", svc))
			root.Handle("/", cp)
			handler = root
			fmt.Fprintf(stderr, "capi serve: web service under /app/ (%d workers, SLO p99 target %gms; 0 = none)\n",
				opts.HTTPWorkers, f.sloP99)
		}
		err = listen("serve", *addr, handler, cp.Shutdown, stderr, func(ctx context.Context) {
			fmt.Fprintf(stderr, "capi serve: control plane on http://%s (GET /v1/status, POST /v1/select, POST /v1/run, GET /v1/report, POST /v1/sampling, GET /metrics, GET /v1/events)\n", *addr)
			if *fleetURL == "" {
				return
			}
			self := *advertise
			if self == "" {
				self = "http://" + *addr
			}
			go fleet.Heartbeat(ctx, strings.TrimRight(*fleetURL, "/"),
				fleet.RegisterRequest{URL: self, Name: *fleetName, App: f.app},
				fleet.DefaultHeartbeatInterval,
				func(format string, args ...any) {
					fmt.Fprintf(stderr, "capi serve: "+format+"\n", args...)
				})
		})
		if err != nil {
			return err
		}
		// Drain and stop the async consumer pool (a no-op inline); the server is
		// down, so no phase can start anymore.
		inst.Close()
		st = inst.Status()
		fmt.Fprintf(stderr, "capi serve: served %d phases, %d re-selections, %d events\n",
			st.Runs, st.Reconfigs, st.Events)
		return nil
	}
}

// cmdFleet is the federated control plane (internal/fleet): one coordinator
// over the static -members and every serve -fleet member that registers.
// Mutations fan out with partial-failure accounting; status, reports,
// /metrics and events are merged.
func cmdFleet(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	addr := fs.String("addr", "127.0.0.1:8070", "listen address")
	members := fs.String("members", "", "comma-separated static member base URLs (e.g. http://127.0.0.1:7070,http://127.0.0.1:7071)")
	var opts fleet.Options
	fs.DurationVar(&opts.TTL, "ttl", fleet.DefaultTTL, "heartbeat TTL before a registered member is evicted")
	fs.DurationVar(&opts.Timeout, "timeout", fleet.DefaultTimeout, "per-member control request timeout")
	return func(stdout, stderr io.Writer) error {
		opts.Members = strings.FieldsFunc(*members, func(r rune) bool { return r == ',' || r == ' ' })
		coord, err := fleet.New(opts)
		if err != nil {
			return err
		}
		// Close disconnects SSE subscribers and stops the member tailers, so
		// streaming requests do not hold the shutdown open.
		return listen("fleet", *addr, coord, coord.Close, stderr, func(context.Context) {
			fmt.Fprintf(stderr, "capi fleet: coordinator on http://%s (%d static members, TTL %s)\n",
				*addr, len(opts.Members), opts.TTL)
			fmt.Fprintln(stderr, "capi fleet: POST /v1/fleet/register to join; GET /v1/fleet/status, GET /v1/fleet/report, GET /v1/fleet/events, POST /v1/select, GET /metrics")
		})
	}
}

// listen serves h on addr until SIGINT or SIGTERM, then shuts the server
// down gracefully. onShutdown runs as the shutdown begins, so open streams
// do not hold it until its timeout; up runs once the listener is started,
// with a context the signal cancels.
func listen(name, addr string, h http.Handler, onShutdown func(), stderr io.Writer, up func(context.Context)) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	srv.RegisterOnShutdown(onShutdown)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	up(ctx)
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "capi %s: shutting down\n", name)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// cmdPaper regenerates the paper's evaluation artifacts: Table I, Table II,
// the §VI-B facts and the §VII-A turnaround. Scale 1.0 is the paper's
// 410,666-node OpenFOAM call graph. Virtual seconds are not comparable to
// the paper's wall-clock numbers; the shape (ratios, orderings) is.
func cmdPaper(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	table := fs.Int("table", 0, "print only Table `N` (1 or 2)")
	facts := fs.Bool("facts", false, "print only the §VI-B / §VII-A facts")
	var opts experiments.Options
	scaleFlag(fs, &opts.Scale)
	ranksFlag(fs, &opts.Ranks)
	return func(stdout, stderr io.Writer) error {
		all := *table == 0 && !*facts
		var tables []*report.Table
		if all || *table == 1 {
			rows, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			tables = append(tables, experiments.RenderTable1(rows))
		}
		if all || *table == 2 {
			rows, err := experiments.Table2(opts)
			if err != nil {
				return err
			}
			tables = append(tables, experiments.RenderTable2(rows))
		}
		if all || *facts {
			f, err := experiments.GatherFacts(opts)
			if err != nil {
				return err
			}
			tables = append(tables, experiments.RenderFacts(f))
		}
		for _, t := range tables {
			if err := t.Write(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}
}

// cmdCG writes the session's whole-program call graph as MetaCG-style JSON
// (Fig. 2, steps 3–4), the input of select -cg.
func cmdCG(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var a appFlags
	a.bind(fs)
	stats := fs.Bool("stats", false, "print node/edge statistics instead of JSON")
	out := outFlag(fs)
	return func(stdout, stderr io.Writer) error {
		s, err := newAppSession(a.app, a.scale)
		if err != nil {
			return err
		}
		g := s.Graph()
		return writeOut(*out, stdout, func(w io.Writer) error {
			if !*stats {
				return g.WriteJSON(w)
			}
			_, err := fmt.Fprintf(w, "program: %s\nnodes:   %d\nedges:   %d\nmain:    %s\n",
				s.Program().Name, g.Len(), g.NumEdges(), g.Main)
			return err
		})
	}
}

// cmdScore is the scorep-score workflow the paper positions CaPI against
// (§II-B): a fully instrumented survey run, regions ranked by their
// estimated overhead share, and an initial exclusion filter — metric-driven,
// with no account of the wider application context.
func cmdScore(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var a appFlags
	a.bind(fs)
	var ranks int
	ranksFlag(fs, &ranks)
	opts := scorep.DefaultScoreOptions()
	fs.Int64Var(&opts.MinVisits, "min-visits", opts.MinVisits, "only exclude regions with at least this many visits")
	out := outFlag(fs)
	return func(stdout, stderr io.Writer) error {
		s, err := newAppSession(a.app, a.scale)
		if err != nil {
			return err
		}
		res, err := s.Run(nil, capi.RunOptions{Backends: []string{"scorep"}, Ranks: ranks, PatchAll: true})
		if err != nil {
			return err
		}
		profile, _ := capi.ReportOf[*capi.Profile](res.Reports, "scorep")
		fmt.Fprintf(stderr, "capi score: survey run %.2fs (virtual), %d events, %d regions\n",
			res.TotalSeconds, res.Events, len(profile.Regions))
		sug, filter := scorep.SuggestFilter(profile, opts)
		fmt.Fprintf(stderr, "capi score: excluding %d regions removes ~%d event pairs\n",
			len(sug.Exclude), sug.EventsRemoved)
		return writeOut(*out, stdout, func(w io.Writer) error {
			_, err := filter.WriteTo(w)
			return err
		})
	}
}
