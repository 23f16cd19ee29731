package experiments

import (
	capi "capi"
	"capi/internal/obj"
	"capi/internal/prog"
)

// Facts collects the in-text evaluation numbers of §VI-B and §VII-A for the
// OpenFOAM case: the DSO and hidden-symbol counts of the patching section,
// the TALP pre-MPI_Init and re-entry failures, and the static-vs-dynamic
// turnaround comparison. At Scale 1.0 the paper reports 6 patchable DSOs,
// 28,687 IDs in the largest object, 1,444 unresolvable hidden symbols (none
// selected), 15 of 16,956 regions failing pre-init and 24 unique failed
// re-entries; scaled runs report proportionally smaller counts.
type Facts struct {
	App   string
	Scale float64

	// §VI-B(a): patching.
	PatchableDSOs      int    // patchable shared objects linked by the solver
	LargestObject      string // object with the most XRay function IDs
	LargestObjectIDs   int
	HiddenUnresolvable int // DSO function IDs DynCaPI cannot map to a name
	HiddenSelected     int // of those, how many the IC selected (paper: 0)

	// §VI-B(b): TALP measurement with the mpi IC.
	MPIRegions    int // functions in the mpi IC (registered as regions)
	FailedPreInit int // regions first entered before MPI_Init
	FailedReentry int // unique failed re-entries (upstream bug, emulated)

	// §VII-A: turnaround.
	RecompileSeconds float64 // static workflow: full rebuild with new IC
	PatchInitSeconds float64 // dynamic workflow: DynCaPI re-patch at start
}

// GatherFacts runs the OpenFOAM case end-to-end and extracts the §VI-B /
// §VII-A numbers. The TALP re-entry bug emulation is on, so the failure
// signature of the paper is observable.
func GatherFacts(opts Options) (*Facts, error) {
	opts = opts.withDefaults()
	s, err := newSession("openfoam", opts)
	if err != nil {
		return nil, err
	}
	build := s.Build()
	f := &Facts{App: "openfoam", Scale: opts.Scale}

	// Patchable DSOs and the largest object by function-ID count.
	for _, im := range build.PatchableImages() {
		if im.Exe {
			continue
		}
		f.PatchableDSOs++
		if n := int(im.NumFuncIDs); n > f.LargestObjectIDs {
			f.LargestObjectIDs = n
			f.LargestObject = im.Name
		}
	}
	// Hidden DSO symbols (static initializers etc.) that the nm-based
	// resolution cannot see.
	for _, im := range build.Images {
		if im.Exe || !im.Patchable {
			continue
		}
		for _, sym := range im.Symbols {
			if sym.Hidden && sym.Kind == obj.SymFunc {
				f.HiddenUnresolvable++
			}
		}
	}

	// Run the mpi IC under TALP.
	row, err := selectSpec(f.App, s, "mpi")
	if err != nil {
		return nil, err
	}
	f.MPIRegions = row.IC.Len()
	for _, name := range row.IC.Include {
		if lay := build.LayoutOf(name); lay != nil && lay.HasSymbol && lay.HasSleds && build.Prog.Func(name).Visibility == prog.Hidden {
			f.HiddenSelected++
		}
	}
	talp := string(capi.BackendTALP)
	res, err := s.Run(row.Selection, capi.RunOptions{Ranks: opts.Ranks, Backends: []string{talp}, EmulateTALPBug: true})
	if err != nil {
		return nil, err
	}
	if rep, ok := capi.ReportOf[*capi.TALPReport](res.Reports, talp); ok {
		f.FailedPreInit = len(rep.FailedPreInit)
		f.FailedReentry = len(rep.FailedEntries)
	}

	// §VII-A turnaround with the same IC.
	ta, err := Turnaround(s, row.Selection, opts)
	if err != nil {
		return nil, err
	}
	f.RecompileSeconds = ta.RecompileSeconds
	f.PatchInitSeconds = ta.PatchInitSeconds
	return f, nil
}
