// Quickstart: the complete Fig. 1 workflow on a miniature MPI application —
// generate the app, build a session (call graph + XRay build), select the
// MPI communication functions, run with Score-P profiling, and print the
// call-path profile. Nothing is recompiled after the session is created.
package main

import (
	"fmt"
	"log"
	"os"

	capi "capi"
)

func main() {
	app := capi.Quickstart()
	session, err := capi.NewSession(app, capi.SessionOptions{OptLevel: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared %q: %d call-graph nodes, rebuild would cost %.0fs\n",
		app.Name, session.Graph().Len(), session.RecompileSeconds())

	// Select everything on a call path to MPI communication, minus system
	// headers and inline-marked functions (the paper's Listing 1 shape).
	sel, err := session.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d of %d functions (%d pre, %d compensation)\n",
		sel.IC.Len(), session.Graph().Len(), sel.Pre, sel.Added)

	// Baseline and instrumented runs.
	vanilla, err := session.RunVanilla(4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.Run(sel, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vanilla %.3fs | instrumented %.3fs (T_init %.3fs, %d events)\n\n",
		vanilla, res.TotalSeconds, res.InitSeconds, res.Events)

	profile, _ := capi.ReportOf[*capi.Profile](res.Reports, "scorep")
	if err := profile.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
