// Command capi runs a selection specification against a workload (or a
// previously exported call graph) and emits the resulting instrumentation
// configuration — the Selection stage of Fig. 1/3.
//
// Usage:
//
//	capi -app lulesh -spec mpi.spec -o lulesh.ic.json
//	capi -app openfoam -builtin "kernels coarse" -format scorep -o of.filter
//	capi -cg lulesh.cg.json -builtin mpi          # no inlining compensation
//
// When -app is given the workload is prepared as a capi session so the
// inlining compensation post-pass (§V-E) can consult the symbol tables; with
// -cg the pass is skipped and a note is printed.
package main

import (
	"flag"
	"fmt"
	"os"

	capi "capi"
	"capi/internal/callgraph"
	"capi/internal/core"
	"capi/internal/experiments"
	"capi/internal/ic"
)

func main() {
	var (
		app      = flag.String("app", "", "workload: quickstart, lulesh or openfoam")
		cgFile   = flag.String("cg", "", "call-graph JSON file (alternative to -app)")
		scale    = flag.Float64("scale", 0.1, "openfoam call-graph scale")
		specFile = flag.String("spec", "", "specification file")
		builtin  = flag.String("builtin", "", `built-in spec: "mpi", "mpi coarse", "kernels", "kernels coarse"`)
		format   = flag.String("format", "json", "IC output format: json or scorep")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	src, err := specSource(*specFile, *builtin)
	if err != nil {
		fatal(err)
	}

	var sel *capi.Selection
	switch {
	case *app != "":
		s, err := capi.NewAppSession(*app, *scale)
		if err != nil {
			fatal(err)
		}
		if sel, err = s.Select(src); err != nil {
			fatal(err)
		}
	case *cgFile != "":
		f, err := os.Open(*cgFile)
		if err != nil {
			fatal(err)
		}
		g, err := callgraph.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "capi: note: -cg given, inlining compensation skipped (no symbol tables)")
		res, err := core.NewEngine(g).RunSource(src, core.Options{})
		if err != nil {
			fatal(err)
		}
		sel = &capi.Selection{IC: res.IC(g.Name, ""), Pre: res.Pre.Count(), Selected: res.Selected.Count(),
			Added: len(res.AddedCompensation), Seconds: res.SelectionTime.Seconds()}
	default:
		fatal(fmt.Errorf("one of -app or -cg is required"))
	}
	fmt.Fprintf(os.Stderr, "capi: %d pre, %d selected, %d added (%.2fs)\n",
		sel.Pre, sel.Selected, sel.Added, sel.Seconds)

	cfg := ic.New(sel.IC.App, *specFile+*builtin, sel.IC.Include)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = cfg.WriteJSON(w)
	case "scorep":
		err = cfg.WriteScorePFilter(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

func specSource(specFile, builtin string) (string, error) {
	switch {
	case specFile != "" && builtin != "":
		return "", fmt.Errorf("-spec and -builtin are mutually exclusive")
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return "", err
		}
		return string(data), nil
	case builtin != "":
		return experiments.SpecSource(builtin)
	default:
		return "", fmt.Errorf("one of -spec or -builtin is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capi:", err)
	os.Exit(1)
}
