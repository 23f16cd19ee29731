package experiments

import (
	capi "capi"
	"capi/internal/compiler"
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
}

// Table2 regenerates Table II: for each app, the vanilla baseline, the
// inactive-sleds run, and per backend the full and per-IC variants.
func Table2(opts Options) ([]OverheadRow, error) {
	opts = opts.withDefaults()
	var rows []OverheadRow
	for _, app := range apps {
		s, err := newSession(app, opts)
		if err != nil {
			return nil, err
		}
		none := string(capi.BackendNone)
		vanilla, err := s.RunVanilla(opts.Ranks)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{App: app, Backend: none, Variant: variantVanilla, InitSeconds: -1, TotalSeconds: vanilla})
		// run measures one variant and files its row; a nil selection
		// without PatchAll is the "xray inactive" baseline.
		run := func(backend, variant string, sel *capi.Selection, ro capi.RunOptions) error {
			ro.Ranks = opts.Ranks
			res, err := s.Run(sel, ro)
			if err != nil {
				return err
			}
			rows = append(rows, OverheadRow{App: app, Backend: backend, Variant: variant,
				InitSeconds: res.InitSeconds, TotalSeconds: res.TotalSeconds})
			return nil
		}
		if err := run(none, variantInactive, nil, capi.RunOptions{}); err != nil {
			return nil, err
		}
		sels := make([]*capi.Selection, len(SpecNames))
		for i, spec := range SpecNames {
			row, err := selectSpec(app, s, spec)
			if err != nil {
				return nil, err
			}
			sels[i] = row.Selection
		}
		for _, backend := range []string{string(capi.BackendTALP), string(capi.BackendScoreP)} {
			names := []string{backend}
			if err := run(backend, variantFull, nil, capi.RunOptions{Backends: names, PatchAll: true}); err != nil {
				return nil, err
			}
			for i, spec := range SpecNames {
				if err := run(backend, spec, sels[i], capi.RunOptions{Backends: names}); err != nil {
					return nil, err
				}
			}
		}
	}
	return rows, nil
}

// CompileTurnaround compares the static workflow's recompilation cost with
// the dynamic workflow's patch-time (§VII-A): adjusting an IC statically
// requires a full rebuild; dynamically it costs one DynCaPI initialization.
type CompileTurnaround struct {
	RecompileSeconds float64
	PatchInitSeconds float64
}

// Turnaround measures the §VII-A comparison for a session and a selection.
func Turnaround(s *capi.Session, sel *capi.Selection, opts Options) (*CompileTurnaround, error) {
	opts = opts.withDefaults()
	// Static workflow: recompile with the IC baked in.
	staticBuild, err := compiler.Compile(s.Program(), compiler.Options{
		OptLevel: s.Build().Options.OptLevel,
		StaticIC: sel.IC,
	})
	if err != nil {
		return nil, err
	}
	// Dynamic workflow: patch at start-up.
	inst, err := s.Start(sel, capi.RunOptions{Ranks: opts.Ranks})
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	return &CompileTurnaround{
		RecompileSeconds: staticBuild.CompileSeconds,
		PatchInitSeconds: inst.Status().InitSeconds,
	}, nil
}
