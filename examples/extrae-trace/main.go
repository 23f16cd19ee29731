// Extrae-style tracing: the LULESH stand-in runs under the sharded trace
// backend — every enter/exit lands as a timestamped record in the executing
// rank's own ring buffer (no cross-rank locking), full rings flush as
// batched segments, and a bounded wrap-mode budget keeps only the newest
// window. The overhead-budget controller narrows the selection mid-run, so
// the output also demonstrates the completeness accounting: every enter is
// either delivered to the tracer (retained or wrapped away) or counted in
// an explicit drop class.
package main

import (
	"fmt"
	"log"
	"os"

	capi "capi"
)

func main() {
	app := capi.Lulesh(capi.LuleshOptions{})
	session, err := capi.NewSession(app, capi.SessionOptions{OptLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	sel, err := session.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d functions for tracing\n", sel.IC.Len())

	inst, err := session.Start(sel, capi.RunOptions{
		Backends: []string{"extrae"},
		Ranks:    4,
		// A deliberately small wrap-mode budget: 2048-event rings, 16k
		// retained events per rank, oldest segment discarded first.
		Trace: &capi.TraceOptions{BufEvents: 2048, MaxEvents: 16384, Wrap: true},
		// The controller narrows the selection whenever instrumentation
		// overhead exceeds the (deliberately tight) budget — mid-run, via
		// delta re-patch, with synthetic exits closing dangling regions.
		Adapt: &capi.AdaptOptions{Budget: 0.0000005},
		// An empty sampling table: nothing is thinned yet, but the sampler
		// counts every enter from the first event on, so its conservation
		// counters cover the whole run and not only the demoted functions.
		Sampling: &capi.SamplingOptions{},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := inst.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("T_init %.3fs, T_total %.3fs (virtual), %d events dispatched, %d live re-selections\n\n",
		res.InitSeconds, res.TotalSeconds, res.Events, res.Reconfigs)
	trace, _ := capi.ReportOf[*capi.TraceReport](res.Reports, "extrae")
	if err := trace.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Completeness, in enter units (an enter stands for its whole pair):
	// every enter of a selected function reached the tracer or sits in one
	// of the sampler's drop classes — the controller demotes a function to
	// 1-in-N before it deselects it. Events that hit a sled between a
	// re-selection and its restore never reach the sampler; the runtime
	// counts those apart.
	c := res.Sampling.Counters
	var traced int64
	for _, r := range trace.Ranks {
		traced += r.Enters
	}
	fmt.Printf("\ncompleteness: %d enters = %d traced + %d sampled out + %d suppressed + %d collapsed\n",
		c.Enters, traced, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls)
	if c.Enters != c.Delivered+c.SampledEvents+c.SuppressedPairs+c.CollapsedCalls || traced != c.Delivered {
		log.Fatalf("enter accounting broken: sampler %+v, tracer recorded %d enters", c, traced)
	}
	st := inst.Status()
	fmt.Printf("outside the selection: %d in-flight drops + %d spurious\n", st.DroppedInFlight, st.DroppedUnpatched)
	if st.SyntheticExits > 0 {
		fmt.Printf("synthetic exits: %d dangling enters closed by live re-selection\n", st.SyntheticExits)
	}
	if len(res.DroppedFuncs) > 0 {
		fmt.Printf("controller dropped %d functions to stay on budget\n", len(res.DroppedFuncs))
	}
}
