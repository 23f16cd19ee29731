// Command dyncapi executes a workload under runtime-adaptable
// instrumentation: the IC is applied by patching XRay sleds at start-up (no
// recompilation), events flow to the chosen measurement backend, and the
// tool report is printed — the Instrumentation + Measurement stages of
// Fig. 1/3.
//
// Usage:
//
//	dyncapi -app lulesh -builtin mpi -backend scorep -ranks 4
//	dyncapi -app openfoam -builtin "mpi coarse" -backend talp
//	dyncapi -app openfoam -full -backend talp       # patch everything
//	dyncapi -app quickstart -ic my.ic.json -backend scorep
//	dyncapi -app lulesh -builtin mpi -backend extrae -trace-buf 8192
//	dyncapi -app lulesh -builtin mpi -backend talp,extrae  # multi-backend fan-out
//	dyncapi -app openfoam -full -adapt -budget 0.01 # live narrowing
//	dyncapi -app lulesh -builtin mpi -sample 64 -suppress-ns 2000  # sampled hot path
//
// -backend takes a comma-separated list of registry names; with several,
// every enter/exit event fans out to each backend and every report is
// printed (or emitted as one JSON envelope with -json). Unknown names fail
// fast with the registered list.
//
// With -adapt (or an explicit -budget), the overhead-budget controller
// watches per-function event counts during the run and narrows the
// selection in place at epoch boundaries — only delta sleds are re-patched,
// the run is never restarted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	capi "capi"
	"capi/internal/experiments"
	"capi/internal/ic"
	"capi/internal/vtime"
)

func main() {
	var (
		app      = flag.String("app", "quickstart", "workload: quickstart, lulesh or openfoam")
		scale    = flag.Float64("scale", 0.1, "openfoam call-graph scale")
		icFile   = flag.String("ic", "", "instrumentation configuration (JSON) to apply")
		spec     = flag.String("spec", "", "specification file to select with")
		builtin  = flag.String("builtin", "", `built-in spec name (e.g. "mpi", "kernels coarse")`)
		full     = flag.Bool("full", false, "patch every sled (xray full)")
		backend  = flag.String("backend", "talp", "comma-separated measurement backends (see capi.RegisteredBackends; e.g. talp,extrae)")
		ranks    = flag.Int("ranks", 4, "simulated MPI ranks")
		traceBuf = flag.Int("trace-buf", 0, "extrae: ring capacity per rank in events (0 = default 4096)")
		traceMax = flag.Int("trace-max", 0, "extrae: retained events per rank (0 = unbounded)")
		traceWrp = flag.Bool("trace-wrap", false, "extrae: wrap (discard oldest segment) instead of dropping new events when -trace-max is exceeded")
		talpBug  = flag.Bool("talp-bug", false, "emulate the TALP re-entry bug (§VI-B(b)): talp reports list the regions that fail on re-entry as failedEntries")
		asJSON   = flag.Bool("json", false, "emit the tool report as JSON")
		adapt    = flag.Bool("adapt", false, "enable live overhead-budget adaptation")
		budget   = flag.Float64("budget", 0, "overhead budget per epoch as a fraction (implies -adapt)")
		epoch    = flag.Float64("epoch", 0, "adaptation epoch length in virtual seconds (implies -adapt)")
		sample   = flag.Int("sample", 0, "1-in-N stride sampling: deliver 1 of every N enters per function and rank (0 = unsampled)")
		suppress = flag.Int64("suppress-ns", 0, "suppress enter/exit pairs predicted shorter than this many virtual ns (exact drop accounting)")
		collapse = flag.Bool("collapse-redundant", false, "collapse repeated identical short calls into a count+aggregate")
		async    = flag.Bool("async", false, "asynchronous event pipeline: backends consume off the dispatch hot path (incompatible with -adapt)")
		asyncBuf = flag.Int("async-buf", 0, "async: per-rank ring capacity in events (0 = default 65536; overflow drops whole pairs, counted)")
		panicLim = flag.Int("panic-limit", 0, "per-backend circuit breaker: recovered panics before auto-detach (0 = default 3, negative = never detach)")
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
	switch {
	case *full:
		// nothing to select
	case *icFile != "":
		f, err := os.Open(*icFile)
		if err != nil {
			fatal(err)
		}
		cfg, err := ic.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sel = &capi.Selection{IC: cfg, Selected: cfg.Len()}
	case *spec != "" || *builtin != "":
		src, err := specSource(*spec, *builtin)
		if err != nil {
			fatal(err)
		}
		sel, err = session.Select(src)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dyncapi: selected %d functions (%d pre, %d added) in %.2fs\n",
			sel.IC.Len(), sel.Pre, sel.Added, sel.Seconds)
	default:
		fatal(fmt.Errorf("one of -ic, -spec, -builtin or -full is required"))
	}

	runOpts := capi.RunOptions{
		Backends:       backends,
		Ranks:          *ranks,
		PatchAll:       *full,
		EmulateTALPBug: *talpBug,
		Async:          *async,
		AsyncBuf:       *asyncBuf,
		PanicLimit:     *panicLim,
	}
	if *adapt || *budget > 0 || *epoch > 0 {
		runOpts.Adapt = &capi.AdaptOptions{
			Budget: *budget,
			Epoch:  vtime.Seconds(*epoch),
		}
	}
	if *traceBuf > 0 || *traceMax > 0 || *traceWrp {
		runOpts.Trace = &capi.TraceOptions{
			BufEvents: *traceBuf,
			MaxEvents: *traceMax,
			Wrap:      *traceWrp,
		}
	}
	if *sample > 0 || *suppress > 0 || *collapse {
		runOpts.Sampling = &capi.SamplingOptions{Default: &capi.SamplingPolicy{
			Stride:            *sample,
			MinDurationNs:     *suppress,
			CollapseRedundant: *collapse,
		}}
	}
	res, err := session.Run(sel, runOpts)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "dyncapi: T_init %.2fs, T_total %.2fs (virtual), %d functions patched, %d events\n",
		res.InitSeconds, res.TotalSeconds, res.Patched, res.Events)
	if res.DroppedAsync > 0 {
		fmt.Fprintf(os.Stderr, "dyncapi: async: %d enter/exit pairs dropped under back-pressure (raise -async-buf)\n",
			res.DroppedAsync)
	}
	if res.Sampling != nil {
		c := res.Sampling.Counters
		fmt.Fprintf(os.Stderr, "dyncapi: sampling: %d enters -> %d delivered (%d sampled out, %d suppressed [%.1fµs], %d collapsed [%.1fµs])\n",
			c.Enters, c.Delivered, c.SampledEvents,
			c.SuppressedPairs, float64(c.SuppressedNs)/1e3,
			c.CollapsedCalls, float64(c.CollapsedNs)/1e3)
	}
	if runOpts.Adapt != nil {
		fmt.Fprintf(os.Stderr, "dyncapi: adapt: %d live re-selections, %d functions active (of %d initially), %d dropped, %d demoted to sampling\n",
			res.Reconfigs, res.ActiveFuncs, res.Patched, len(res.DroppedFuncs), len(res.DemotedFuncs))
		for _, ep := range res.AdaptEpochs {
			if len(ep.Demoted) > 0 || len(ep.Promoted) > 0 {
				fmt.Fprintf(os.Stderr, "dyncapi: adapt: epoch %d @%s on rank %d: demoted %d to 1-in-N, promoted %d back\n",
					ep.Seq, vtime.FormatSeconds(ep.AtNs), ep.Rank, len(ep.Demoted), len(ep.Promoted))
			}
			if !ep.Reconfigured {
				continue
			}
			fmt.Fprintf(os.Stderr, "dyncapi: adapt: epoch %d @%s on rank %d: overhead %.1fµs > budget %.1fµs, dropped %d (re-patched only the delta: %d sleds in %d mprotect windows)\n",
				ep.Seq, vtime.FormatSeconds(ep.AtNs), ep.Rank,
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			fatal(err)
		}
		return
	}
	// Text mode: every backend's report, in delivery order. A report value
	// without a text renderer falls back to its JSON envelope.
	type textReport interface{ WriteText(io.Writer) error }
	for _, name := range res.Backends {
		rep, ok := res.Reports[name]
		if !ok {
			continue
		}
		if len(res.Reports) > 1 {
			fmt.Printf("== %s (%s) ==\n", name, rep.Kind())
		}
		var err error
		if tr, ok := capi.ReportOf[textReport](res.Reports, name); ok {
			err = tr.WriteText(os.Stdout)
		} else {
			var raw []byte
			if raw, err = rep.MarshalJSON(); err == nil {
				_, err = fmt.Printf("%s\n", raw)
			}
		}
		if err != nil {
			fatal(err)
		}
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
	fmt.Fprintln(os.Stderr, "dyncapi:", err)
	os.Exit(1)
}
