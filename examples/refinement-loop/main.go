// Refinement-loop: quantifies the paper's §VII-A usability argument — and
// goes one step further. The static workflow pays a full recompilation for
// every IC adjustment. The paper's dynamic workflow pays one DynCaPI
// re-patch at start-up per iteration. This example refines *live*: one
// instance is started, and every subsequent iteration narrows the selection
// in place with Instance.Reconfigure — only the delta sleds are re-patched
// and the instrumentation runtime is never torn down, so the turnaround of
// an adjustment shrinks from a full T_init to the cost of the delta.
package main

import (
	"fmt"
	"log"

	capi "capi"
)

var iterations = []struct {
	note string
	spec string
}{
	{
		"initial mpi selection",
		`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`,
	},
	{
		"too noisy: drop the per-patch Pstream helpers",
		`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
noisy = byName("ProcPatch", %%)
subtract(subtract(%mpi_comm, %excluded), %noisy)
`,
	},
	{
		"still too fine: coarse regions only",
		`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
sel = subtract(%mpi_comm, %excluded)
coarse(%sel)
`,
	},
}

func main() {
	session, err := capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.05, Timesteps: 2}),
		capi.SessionOptions{OptLevel: 2})
	if err != nil {
		log.Fatal(err)
	}
	recompile := session.RecompileSeconds()
	fmt.Printf("OpenFOAM stand-in: one full rebuild costs %.0fs (paper: ~50 min at full scale)\n\n", recompile)

	// One live instance for the whole loop: started once, refined in place.
	var inst *capi.Instance
	var staticCost, dynamicCost float64
	for i, it := range iterations {
		sel, err := session.Select(it.spec)
		if err != nil {
			log.Fatal(err)
		}
		if inst == nil {
			// First iteration: start the instance and pay T_init once.
			inst, err = session.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 4})
			if err != nil {
				log.Fatal(err)
			}
		} else {
			// Later iterations: re-select live. Only the delta sleds are
			// re-patched; the DynCaPI runtime stays up.
			rep, err := inst.Reconfigure(sel)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  live re-selection: +%d -%d functions (%d kept), %d sleds re-patched in %d mprotect windows\n",
				rep.Patched, rep.Unpatched, rep.Kept,
				rep.Batch.PatchedSleds+rep.Batch.UnpatchedSleds, rep.Batch.BatchWindows)
		}
		res, err := inst.Run()
		if err != nil {
			log.Fatal(err)
		}
		staticCost += recompile
		dynamicCost += res.InitSeconds
		fmt.Printf("iteration %d (%s):\n", i+1, it.note)
		fmt.Printf("  IC size %5d | static turnaround +%.0fs | live turnaround +%.6fs | %d events\n",
			sel.IC.Len(), recompile, res.InitSeconds, res.Events)
	}
	fmt.Printf("\nafter %d refinements: static workflow %.0fs of rebuilds, live workflow %.4fs of (re-)patching (%.0fx faster)\n",
		len(iterations), staticCost, dynamicCost, staticCost/dynamicCost)
	fmt.Printf("the instance was never torn down: %d live re-selections on one DynCaPI runtime\n", inst.Status().Reconfigs)
}
