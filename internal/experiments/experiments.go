// Package experiments is the reproduction harness: it regenerates the
// paper's evaluation artifacts — Table I (selection results), Table II
// (instrumentation overhead) and the in-text §VI-B facts — from the
// synthetic workloads, and renders them via internal/report. Every run goes
// through the public capi Session/Instance API, the same wiring the tools
// and examples use.
//
// Absolute virtual seconds differ from the paper's wall-clock numbers (our
// substrate is a simulator and the default workload scales are reduced);
// the *shape* — which selection wins, by what factor, where TALP and
// Score-P cross over — is the reproduction target. TestPaperTables pins
// the rendered tables and asserts those shapes.
package experiments

import (
	"fmt"

	capi "capi"
	"capi/internal/workload"
)

// The four general-purpose selection specifications of §VI.
const (
	SpecMPI = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`
	SpecMPICoarse = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
sel = subtract(%mpi_comm, %excluded)
coarse(%sel)
`
	SpecKernels = `excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
subtract(callPathTo(%kernels), %excluded)
`
	SpecKernelsCoarse = `excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
sel = subtract(callPathTo(%kernels), %excluded)
coarse(%sel, %kernels)
`
)

// SpecNames lists the Table I/II variants in presentation order.
var SpecNames = []string{"mpi", "mpi coarse", "kernels", "kernels coarse"}

// SpecSource returns the specification source for a variant name.
func SpecSource(name string) (string, error) {
	switch name {
	case "mpi":
		return SpecMPI, nil
	case "mpi coarse":
		return SpecMPICoarse, nil
	case "kernels":
		return SpecKernels, nil
	case "kernels coarse":
		return SpecKernelsCoarse, nil
	default:
		return "", fmt.Errorf("experiments: unknown spec %q", name)
	}
}

// Options sizes the harness runs.
type Options struct {
	// Ranks of the simulated MPI world (default 4).
	Ranks int
	// Scale of the OpenFOAM call graph (default 0.1; 1.0 = paper scale).
	Scale float64
	// LuleshTimesteps (default 60) and OpenFOAM loop sizing.
	LuleshTimesteps int
	OFTimesteps     int
	PCGIters        int
}

func (o Options) withDefaults() Options {
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	return o
}

// apps lists the paper's two test cases in presentation order.
var apps = []string{"lulesh", "openfoam"}

// newSession prepares one of the paper's test cases, sized by opts, with
// the paper's optimization level and the case's per-rank load imbalance.
func newSession(app string, opts Options) (*capi.Session, error) {
	opts = opts.withDefaults()
	if app == "lulesh" {
		return capi.NewSession(capi.Lulesh(capi.LuleshOptions{
			Timesteps: opts.LuleshTimesteps,
		}), capi.SessionOptions{
			OptLevel:     workload.LuleshOptLevel,
			RankWorkSkew: workload.LuleshRankSkew(opts.Ranks),
		})
	}
	return capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{
		Scale:     opts.Scale,
		Timesteps: opts.OFTimesteps,
		PCGIters:  opts.PCGIters,
	}), capi.SessionOptions{
		OptLevel:     workload.OpenFOAMOptLevel,
		RankWorkSkew: workload.OpenFOAMRankSkew(opts.Ranks),
	})
}

// SelectionRow is one Table I row: the selection's counts and wall-clock
// time (Table I's Time column) for one app and spec.
type SelectionRow struct {
	App   string
	Spec  string
	Total int // call-graph size, for the percentage columns
	*capi.Selection
}

// PrePct returns Pre as a percentage of the graph size.
func (r SelectionRow) PrePct() float64 { return 100 * float64(r.Pre) / float64(r.Total) }

// SelectedPct returns Selected as a percentage of the graph size.
func (r SelectionRow) SelectedPct() float64 {
	return 100 * float64(r.Selected) / float64(r.Total)
}

// selectSpec evaluates one named specification on a session.
func selectSpec(app string, s *capi.Session, spec string) (SelectionRow, error) {
	src, err := SpecSource(spec)
	if err != nil {
		return SelectionRow{}, err
	}
	sel, err := s.Select(src)
	if err != nil {
		return SelectionRow{}, fmt.Errorf("experiments: %s/%s: %w", app, spec, err)
	}
	return SelectionRow{App: app, Spec: spec, Total: s.Graph().Len(), Selection: sel}, nil
}

// Table1 regenerates Table I for both applications.
func Table1(opts Options) ([]SelectionRow, error) {
	var rows []SelectionRow
	for _, app := range apps {
		s, err := newSession(app, opts)
		if err != nil {
			return nil, err
		}
		for _, spec := range SpecNames {
			row, err := selectSpec(app, s, spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
