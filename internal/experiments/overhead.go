package experiments

import (
	"fmt"

	"capi/internal/compiler"
	"capi/internal/dyncapi"
	"capi/internal/exec"
	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/xray"
)

// Backend names for Table II and the dispatch benchmarks.
const (
	BackendNone   = "none" // vanilla / xray-inactive
	BackendTALP   = "talp"
	BackendScoreP = "scorep"
	BackendExtrae = "extrae"
)

// Variant names for Table II rows.
const (
	VariantVanilla  = "vanilla"
	VariantInactive = "xray inactive"
	VariantFull     = "xray full"
)

// OverheadRow is one Table II row.
type OverheadRow struct {
	App     string
	Backend string
	Variant string
	// InitSeconds is T_init (virtual); negative means not applicable
	// (vanilla / inactive rows print "-").
	InitSeconds float64
	// TotalSeconds is T_total (virtual), including T_init.
	TotalSeconds float64
	// Events is the number of dispatched instrumentation events.
	Events int64
}

// RunOutcome bundles a measured run with its tool reports.
type RunOutcome struct {
	Row        OverheadRow
	TALPReport *talp.Report
	Profile    *scorep.Profile
	Dyn        dyncapi.Report
	Backend    dyncapi.Backend
}

// RunVariant executes one Table II configuration.
//
//   - variant "vanilla": the uninstrumented build, no XRay at all;
//   - variant "xray inactive": the XRay build, nothing patched, no backend;
//   - variant "xray full": everything patched;
//   - any other variant: cfg selects the functions to patch.
func RunVariant(bundle *AppBundle, backend, variant string, cfg *ic.Config, opts Options) (*RunOutcome, error) {
	opts = opts.withDefaults()
	out := &RunOutcome{Row: OverheadRow{App: bundle.Name, Backend: backend, Variant: variant, InitSeconds: -1}}

	build := bundle.Build
	if variant == VariantVanilla {
		build = bundle.VanillaBuild
	}
	proc, err := build.LoadProcess()
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(opts.Ranks, mpi.DefaultCostModel())
	if err != nil {
		return nil, err
	}

	var xr *xray.Runtime
	if variant != VariantVanilla {
		xr, err = xray.NewRuntime(proc)
		if err != nil {
			return nil, err
		}
	}

	// Wire the measurement backend and DynCaPI unless this is an
	// uninstrumented variant.
	instrumented := variant != VariantVanilla && variant != VariantInactive
	if instrumented {
		var back dyncapi.Backend
		switch backend {
		case BackendTALP:
			mon := talp.New(world, talp.Options{
				EmulateReentryBug: opts.EmulateTALPBug,
				BugModulus:        opts.TALPBugModulus,
				BugMinRegions:     opts.TALPBugMinRegions,
			})
			back = dyncapi.NewTALPBackend(mon)
		case BackendScoreP:
			m, err := scorep.New(scorep.Options{Ranks: opts.Ranks})
			if err != nil {
				return nil, err
			}
			back = dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
		case BackendExtrae:
			buf, err := trace.New(trace.Options{Ranks: opts.Ranks})
			if err != nil {
				return nil, err
			}
			back = dyncapi.NewExtraeBackend(buf)
		case BackendNone:
			back = &dyncapi.CygBackend{}
		default:
			return nil, fmt.Errorf("experiments: unknown backend %q", backend)
		}
		dynOpts := dyncapi.Options{PatchAll: variant == VariantFull}
		dynRT, err := dyncapi.New(proc, xr, cfg, back, dynOpts)
		if err != nil {
			return nil, err
		}
		out.Dyn = dynRT.Report()
		out.Backend = back
		out.Row.InitSeconds = float64(out.Dyn.InitVirtualNs) / 1e9
	}

	eng, err := exec.New(exec.Config{
		Build:        build,
		Proc:         proc,
		XRay:         xr,
		World:        world,
		RankWorkSkew: bundle.Skew,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}

	var maxSeconds float64
	for _, r := range world.Ranks() {
		if s := r.Clock().Seconds(); s > maxSeconds {
			maxSeconds = s
		}
	}
	out.Row.TotalSeconds = maxSeconds
	if out.Row.InitSeconds > 0 {
		out.Row.TotalSeconds += out.Row.InitSeconds
	}
	out.Row.Events = eng.TotalEvents()

	// Collect tool reports.
	switch b := out.Backend.(type) {
	case *dyncapi.TALPBackend:
		out.TALPReport = b.Mon.Report()
	case *dyncapi.ScorePBackend:
		out.Profile = b.M.Profile()
	}
	return out, nil
}

// TALPStats extracts the per-rank TALP activity counters from a run that
// used the TALP backend (nil otherwise). Used for cost-model calibration.
func TALPStats(run *RunOutcome, ranks int) []talp.Stats {
	tb, ok := run.Backend.(*dyncapi.TALPBackend)
	if !ok {
		return nil
	}
	out := make([]talp.Stats, ranks)
	for i := range out {
		out[i] = tb.Mon.RankStats(i)
	}
	return out
}

// Table2 regenerates Table II: for each app, the vanilla baseline, the
// inactive-sleds run, and per backend the full and per-IC variants.
func Table2(opts Options) ([]OverheadRow, error) {
	opts = opts.withDefaults()
	var rows []OverheadRow
	for _, prep := range []func(Options) (*AppBundle, error){PrepareLulesh, PrepareOpenFOAM} {
		bundle, err := prep(opts)
		if err != nil {
			return nil, err
		}
		ics := map[string]*ic.Config{}
		for _, spec := range SpecNames {
			row, err := RunSelection(bundle, spec)
			if err != nil {
				return nil, err
			}
			ics[spec] = row.IC
		}
		van, err := RunVariant(bundle, BackendNone, VariantVanilla, nil, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, van.Row)
		inact, err := RunVariant(bundle, BackendNone, VariantInactive, nil, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, inact.Row)
		for _, backend := range []string{BackendTALP, BackendScoreP} {
			full, err := RunVariant(bundle, backend, VariantFull, nil, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full.Row)
			for _, spec := range SpecNames {
				run, err := RunVariant(bundle, backend, spec, ics[spec], opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, run.Row)
			}
		}
	}
	return rows, nil
}

// RunRuntimeFiltered executes the §II-B comparison baseline: every sled is
// patched and Score-P's *runtime filtering* discards the events of regions
// outside the IC — "the overhead of invoking the probe and cross-checking
// the filter list is retained". Comparing against RunVariant with the same
// IC (patch-selected, Score-P unfiltered) isolates the benefit of
// selecting at patch time, the paper's approach.
func RunRuntimeFiltered(bundle *AppBundle, cfg *ic.Config, opts Options) (*RunOutcome, error) {
	opts = opts.withDefaults()
	out := &RunOutcome{Row: OverheadRow{App: bundle.Name, Backend: BackendScoreP, Variant: "runtime filter"}}

	proc, err := bundle.Build.LoadProcess()
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(opts.Ranks, mpi.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		return nil, err
	}
	filter := scorep.NewFilter().Exclude("*")
	for _, name := range cfg.Include {
		filter.Include(name)
	}
	m, err := scorep.New(scorep.Options{Ranks: opts.Ranks, RuntimeFilter: filter})
	if err != nil {
		return nil, err
	}
	back := dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
	dynRT, err := dyncapi.New(proc, xr, nil, back, dyncapi.Options{PatchAll: true})
	if err != nil {
		return nil, err
	}
	out.Dyn = dynRT.Report()
	out.Backend = back
	out.Row.InitSeconds = float64(out.Dyn.InitVirtualNs) / 1e9

	eng, err := exec.New(exec.Config{
		Build:        bundle.Build,
		Proc:         proc,
		XRay:         xr,
		World:        world,
		RankWorkSkew: bundle.Skew,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	for _, r := range world.Ranks() {
		if s := r.Clock().Seconds(); s > out.Row.TotalSeconds {
			out.Row.TotalSeconds = s
		}
	}
	out.Row.TotalSeconds += out.Row.InitSeconds
	out.Row.Events = eng.TotalEvents()
	out.Profile = m.Profile()
	return out, nil
}

// CompileTurnaround compares the static workflow's recompilation cost with
// the dynamic workflow's patch-time (§VII-A): adjusting an IC statically
// requires a full rebuild; dynamically it costs one DynCaPI initialization.
type CompileTurnaround struct {
	App              string
	RecompileSeconds float64
	PatchInitSeconds float64
}

// Turnaround measures the §VII-A comparison for a bundle with the given IC.
func Turnaround(bundle *AppBundle, cfg *ic.Config, opts Options) (*CompileTurnaround, error) {
	opts = opts.withDefaults()
	// Static workflow: recompile with the IC baked in.
	staticBuild, err := compiler.Compile(bundle.Prog, compiler.Options{
		OptLevel: bundle.OptLevel,
		StaticIC: cfg,
	})
	if err != nil {
		return nil, err
	}
	// Dynamic workflow: patch at start-up.
	run, err := RunVariant(bundle, BackendNone, "ic", cfg, opts)
	if err != nil {
		return nil, err
	}
	return &CompileTurnaround{
		App:              bundle.Name,
		RecompileSeconds: staticBuild.CompileSeconds,
		PatchInitSeconds: run.Row.InitSeconds,
	}, nil
}
