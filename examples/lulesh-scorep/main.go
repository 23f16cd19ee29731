// LULESH + Score-P: fine-grained kernel profiling of the LULESH proxy app
// (§VI, Table I's lulesh rows), including one refinement iteration of the
// Fig. 1 loop driven by a scorep-score-style filter suggestion — without
// any recompilation between runs.
package main

import (
	"fmt"
	"log"
	"os"

	capi "capi"
)

const kernelsSpec = `excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
subtract(callPathTo(%kernels), %excluded)
`

func main() {
	session, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 20}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LULESH: %d call-graph nodes (paper: 3,360); full rebuild would cost %.0fs\n",
		session.Graph().Len(), session.RecompileSeconds())

	// Iteration 1: compute-kernel selection.
	sel, err := session.Select(kernelsSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernels IC: %d pre -> %d selected, %d added by inlining compensation\n",
		sel.Pre, sel.Selected, sel.Added)
	fmt.Printf("  removed (inlined at -O3): %v\n", sel.RemovedInlined)

	run1, err := session.Run(sel, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	vanilla, err := session.RunVanilla(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 1: %.2fs vs vanilla %.2fs (+%.1f%%), %d events\n\n",
		run1.TotalSeconds, vanilla, 100*(run1.TotalSeconds-vanilla)/vanilla, run1.Events)

	// Survey: which measured region has the most visits relative to its
	// time? (What scorep-score flags as filter candidates.)
	var worst string
	var worstVisits int64
	profile1, _ := capi.ReportOf[*capi.Profile](run1.Reports, "scorep")
	for _, r := range profile1.Regions {
		if r.Name == "main" {
			continue
		}
		if r.Visits > worstVisits {
			worst, worstVisits = r.Name, r.Visits
		}
	}
	fmt.Printf("refinement: excluding most-visited region %q (%d visits)\n", worst, worstVisits)

	// Iteration 2: same spec minus the noisy region and everything it
	// calls (otherwise the inlining compensation would re-add it as the
	// first symbol-bearing caller of its inlined children). One re-patch,
	// not a 50-minute rebuild.
	sel2, err := session.Select(kernelsSpec + fmt.Sprintf(
		"noisy = callPathFrom(byName(\"^%s$\", %%%%))\nsubtract(subtract(callPathTo(%%kernels), %%excluded), %%noisy)\n", worst))
	if err != nil {
		log.Fatal(err)
	}
	run2, err := session.Run(sel2, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 2: %.2fs (+%.1f%%), %d events — turnaround %.2fs instead of a %.0fs rebuild\n\n",
		run2.TotalSeconds, 100*(run2.TotalSeconds-vanilla)/vanilla, run2.Events,
		run2.InitSeconds, session.RecompileSeconds())

	profile2, _ := capi.ReportOf[*capi.Profile](run2.Reports, "scorep")
	if err := profile2.WriteCallTree(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
