// OpenFOAM + TALP: coarse region instrumentation of the icoFoam solver
// stand-in (the paper's Listing 3 scenario). The coarse selector collapses
// the nested solve→…→Amul wrapper chain so the TALP report shows the main
// solve entry and the hot kernels instead of a wall of single-caller
// wrappers; POP parallel-efficiency metrics are printed per region.
package main

import (
	"fmt"
	"log"
	"os"

	capi "capi"
)

func main() {
	app := capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.05, Timesteps: 4})
	session, err := capi.NewSession(app, capi.SessionOptions{
		OptLevel: 2,
		// The cavity decomposition is mildly imbalanced; the skew shows
		// up in TALP's load-balance coefficients.
		RankWorkSkew: []float64{1.0, 1.06, 1.02, 1.08},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OpenFOAM/icoFoam: %d call-graph nodes, %d objects\n",
		session.Graph().Len(), len(session.Build().Images))

	// The coarse TALP selection (§V-D): keep the kernels as critical
	// regions, collapse single-caller chains around them.
	sel, err := session.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
sel = subtract(join(%mpi_comm, callPathTo(%kernels)), %excluded)
coarse(%sel, %kernels)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coarse IC: %d pre -> %d regions (%d compensated)\n",
		sel.Pre, sel.IC.Len(), sel.Added)
	if sel.IC.Contains("Foam::fvMesh::solve") {
		log.Fatal("coarse selector failed: single-caller wrapper retained")
	}
	if !sel.IC.Contains("Foam::lduMatrix::Amul") {
		log.Fatal("coarse selector failed: Amul kernel dropped")
	}

	res, err := session.Run(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T_init %.2fs, T_total %.2fs (virtual), %d regions patched\n",
		res.InitSeconds, res.TotalSeconds, res.Patched)
	talp, _ := capi.ReportOf[*capi.TALPReport](res.Reports, "talp")
	if len(talp.FailedPreInit) > 0 {
		fmt.Printf("regions entered before MPI_Init (not recorded, §VI-B): %v\n",
			talp.FailedPreInit)
	}
	fmt.Println()
	if err := talp.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
