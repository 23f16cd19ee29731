// Extrae-style tracing: the LULESH stand-in runs under the sharded trace
// backend — every enter/exit lands as a timestamped record in the executing
// rank's own ring buffer (no cross-rank locking), full rings flush as
// batched segments, and a bounded wrap-mode budget keeps only the newest
// window. The overhead-budget controller narrows the selection mid-run, so
// the output also demonstrates the completeness accounting: every
// dispatched event is either retained, wrapped away, or counted in an
// explicit drop class.
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
		Adapt: &capi.AdaptOptions{Budget: 0.000002},
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
	if err := res.Trace.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Completeness: dispatched = delivered to the tracer + dropped by the
	// runtime inside the documented windows. The tracer's own accounting
	// splits delivered into retained + wrapped + policy-dropped.
	inFlight, unpatched := inst.DroppedEvents()
	delivered := res.Trace.Recorded + res.Trace.Dropped
	fmt.Printf("\ncompleteness: %d dispatched = %d traced + %d in-flight drops + %d spurious\n",
		res.Events, delivered, inFlight, unpatched)
	if delivered+inFlight+unpatched != res.Events {
		log.Fatalf("event accounting broken: %d != %d", delivered+inFlight+unpatched, res.Events)
	}
	if n := inst.SyntheticExits(); n > 0 {
		fmt.Printf("synthetic exits: %d dangling enters closed by live re-selection\n", n)
	}
	if len(res.DroppedFuncs) > 0 {
		fmt.Printf("controller dropped %d functions to stay on budget\n", len(res.DroppedFuncs))
	}
}
