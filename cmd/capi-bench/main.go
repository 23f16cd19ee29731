// Command capi-bench regenerates the paper's evaluation artifacts: Table I
// (selection results), Table II (instrumentation overhead), the §VI-B
// in-text facts and the §VII-A turnaround comparison.
//
// Usage:
//
//	capi-bench -table 1                 # selection results
//	capi-bench -table 2 -ranks 4        # instrumentation overhead
//	capi-bench -facts                   # §VI-B facts (OpenFOAM)
//	capi-bench -all -scale 0.1          # everything, at call-graph scale 0.1
//
// Scale 1.0 reproduces the paper's 410,666-node OpenFOAM call graph; smaller
// scales keep turnaround short. Absolute virtual seconds are not comparable
// to the paper's wall-clock numbers — the shape (ratios, orderings) is.
package main

import (
	"flag"
	"fmt"
	"os"

	"capi/internal/dyncapi"
	"capi/internal/experiments"
	"capi/internal/ic"
	"capi/internal/report"
	"capi/internal/talp"
)

func main() {
	var (
		table = flag.Int("table", 0, "regenerate Table `N` (1 or 2)")
		facts = flag.Bool("facts", false, "gather the §VI-B / §VII-A facts")
		all   = flag.Bool("all", false, "regenerate every artifact")
		scale = flag.Float64("scale", 0.1, "OpenFOAM call-graph scale (1.0 = paper size)")
		ranks = flag.Int("ranks", 4, "simulated MPI ranks")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned text")
		probe = flag.Bool("probe", false, "print calibration counters (maintainer tool)")
	)
	flag.Parse()
	if !*all && *table == 0 && !*facts && !*probe {
		flag.Usage()
		os.Exit(2)
	}
	opts := experiments.Options{Scale: *scale, Ranks: *ranks}

	if *all || *table == 1 {
		rows, err := experiments.Table1(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderTable1(rows), *csv)
	}
	if *all || *table == 2 {
		rows, err := experiments.Table2(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderTable2(rows), *csv)
	}
	if *all || *facts {
		f, err := experiments.GatherFacts(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderFacts(f), *csv)
	}
	if *probe {
		if err := runProbe(opts); err != nil {
			fatal(err)
		}
	}
}

// runProbe prints per-variant event and TALP-touch counters used to
// calibrate the backend cost models (a maintainer tool; not part of the
// paper's tables).
func runProbe(opts experiments.Options) error {
	for _, prep := range []func(experiments.Options) (*experiments.AppBundle, error){
		experiments.PrepareLulesh, experiments.PrepareOpenFOAM,
	} {
		bundle, err := prep(opts)
		if err != nil {
			return err
		}
		van, err := experiments.RunVariant(bundle, experiments.BackendNone, experiments.VariantVanilla, nil, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s: vanilla %.2fs\n", bundle.Name, van.Row.TotalSeconds)
		variants := append([]string{experiments.VariantFull}, experiments.SpecNames...)
		for _, variant := range variants {
			var cfg *ic.Config
			if variant != experiments.VariantFull {
				row, err := experiments.RunSelection(bundle, variant)
				if err != nil {
					return err
				}
				cfg = row.IC
			}
			run, err := experiments.RunVariant(bundle, experiments.BackendTALP, variant, cfg, opts)
			if err != nil {
				return err
			}
			var max talp.Stats
			for _, s := range experiments.TALPStats(run, opts.Ranks) {
				if s.StartStops > max.StartStops {
					max.StartStops = s.StartStops
				}
				if s.MPICalls > max.MPICalls {
					max.MPICalls = s.MPICalls
				}
				if s.RegionTouches > max.RegionTouches {
					max.RegionTouches = s.RegionTouches
				}
			}
			fmt.Printf("  %-15s events=%-9d startStops/rank=%-8d mpiCalls/rank=%-7d touches/rank=%-9d Ttotal=%.2f Tinit=%.2f\n",
				variant, run.Row.Events, max.StartStops, max.MPICalls, max.RegionTouches,
				run.Row.TotalSeconds, run.Row.InitSeconds)

			spRun, err := experiments.RunVariant(bundle, experiments.BackendScoreP, variant, cfg, opts)
			if err != nil {
				return err
			}
			cct := 0
			if sp, ok := spRun.Backend.(*dyncapi.ScorePBackend); ok {
				for r := 0; r < opts.Ranks; r++ {
					if n := sp.M.CallTreeSize(r); n > cct {
						cct = n
					}
				}
			}
			fmt.Printf("  %-15s [scorep] cctNodes/rank=%-7d Ttotal=%.2f Tinit=%.2f\n",
				variant, cct, spRun.Row.TotalSeconds, spRun.Row.InitSeconds)
		}
	}
	return nil
}

func render(t *report.Table, csv bool) {
	var err error
	if csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.Write(os.Stdout)
		fmt.Println()
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capi-bench:", err)
	os.Exit(1)
}
