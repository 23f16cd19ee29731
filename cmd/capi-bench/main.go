// Command capi-bench regenerates the paper's evaluation artifacts: Table I
// (selection results), Table II (instrumentation overhead), the §VI-B
// in-text facts and the §VII-A turnaround comparison.
//
// Usage:
//
//	capi-bench                          # everything
//	capi-bench -table 1                 # selection results
//	capi-bench -table 2 -ranks 4        # instrumentation overhead
//	capi-bench -facts                   # §VI-B facts (OpenFOAM)
//	capi-bench -scale 1.0               # everything, at paper scale
//
// Scale 1.0 reproduces the paper's 410,666-node OpenFOAM call graph; smaller
// scales keep turnaround short. Absolute virtual seconds are not comparable
// to the paper's wall-clock numbers — the shape (ratios, orderings) is.
package main

import (
	"flag"
	"fmt"
	"os"

	"capi/internal/experiments"
	"capi/internal/report"
)

func main() {
	var (
		table = flag.Int("table", 0, "regenerate only Table `N` (1 or 2)")
		facts = flag.Bool("facts", false, "gather only the §VI-B / §VII-A facts")
		scale = flag.Float64("scale", 0.1, "OpenFOAM call-graph scale (1.0 = paper size)")
		ranks = flag.Int("ranks", 4, "simulated MPI ranks")
	)
	flag.Parse()
	all := *table == 0 && !*facts
	opts := experiments.Options{Scale: *scale, Ranks: *ranks}

	if all || *table == 1 {
		rows, err := experiments.Table1(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderTable1(rows))
	}
	if all || *table == 2 {
		rows, err := experiments.Table2(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderTable2(rows))
	}
	if all || *facts {
		f, err := experiments.GatherFacts(opts)
		if err != nil {
			fatal(err)
		}
		render(experiments.RenderFacts(f))
	}
}

func render(t *report.Table) {
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capi-bench:", err)
	os.Exit(1)
}
