// Multi-backend fan-out: one LULESH run feeds TALP parallel-efficiency
// metrics *and* an Extrae-style trace from the same event stream, through
// the registry-built mux — no second run, no second patching pass. While
// the phase executes, the selection is narrowed live; the mux delivers the
// synthetic exits that close dangling enters to *every* stateful backend
// (counted per backend in the ReconfigReport), so the TALP regions stay
// balanced and the trace accounting stays exact even though both watched
// the same re-selection.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	capi "capi"
)

const wideSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

const narrowSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
coarse(subtract(%mpi_comm, %excluded))
`

func main() {
	session, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 4000}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	wide, err := session.Select(wideSpec)
	if err != nil {
		log.Fatal(err)
	}
	narrow, err := session.Select(narrowSpec)
	if err != nil {
		log.Fatal(err)
	}

	// Two backends from the registry, one instrumented run. The registry is
	// open: capi.RegisterBackend adds your own (see ExampleRegisterBackend).
	fmt.Printf("registered backends: %v\n", capi.RegisteredBackends())
	inst, err := session.Start(wide, capi.RunOptions{
		Backends: []string{"talp", "extrae"},
		Ranks:    4,
		Trace:    &capi.TraceOptions{BufEvents: 4096},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := inst.Status()
	fmt.Printf("attached: %v — %d functions patched, T_init %.2fs (virtual)\n\n",
		st.Backends, st.Patched, st.InitSeconds)

	// Execute the phase on its own goroutine and narrow the selection while
	// the ranks are provably inside it — the Fig. 1 loop without leaving
	// the process, with two measurement systems watching.
	phase := make(chan *capi.RunResult, 1)
	go func() {
		res, err := inst.Run()
		if err != nil {
			log.Fatal(err)
		}
		phase <- res
	}()
	for st = inst.Status(); !st.Running && st.Runs == 0; st = inst.Status() {
		time.Sleep(time.Millisecond)
	}
	rep, err := inst.Reconfigure(narrow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("narrowed live: -%d +%d functions (%d kept), %d sleds re-patched\n",
		rep.Unpatched, rep.Patched, rep.Kept,
		rep.Batch.PatchedSleds+rep.Batch.UnpatchedSleds)
	fmt.Printf("synthetic exits per backend: %v (total %d)\n\n",
		rep.SyntheticExitsByBackend, rep.SyntheticExits)

	res := <-phase
	fmt.Printf("phase done: T_total %.2fs (virtual), %d events to each of %d backends\n\n",
		res.TotalSeconds, res.Events, len(res.Backends))

	// Both reports came from the same event stream; the envelope carries
	// them keyed by backend name, each self-describing its kind.
	for _, name := range res.Backends {
		rep := res.Reports[name]
		fmt.Printf("== %s (kind %q) ==\n", name, rep.Kind())
	}
	fmt.Println()
	talp, _ := capi.ReportOf[*capi.TALPReport](res.Reports, "talp")
	if err := talp.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	trace, _ := capi.ReportOf[*capi.TraceReport](res.Reports, "extrae")
	if err := trace.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Consistency across the fan-out: TALP closed every region the
	// re-selection left dangling, and the trace accounting is exact — every
	// dispatched event reached both backends or is in an explicit drop class.
	st = inst.Status()
	delivered := trace.Recorded + trace.Dropped
	fmt.Printf("\ncompleteness: %d dispatched = %d traced + %d in-flight drops + %d spurious\n",
		res.Events, delivered, st.DroppedInFlight, st.DroppedUnpatched)
	if delivered+st.DroppedInFlight+st.DroppedUnpatched != res.Events {
		log.Fatalf("event accounting broken: %d != %d", delivered+st.DroppedInFlight+st.DroppedUnpatched, res.Events)
	}
	if by := st.SyntheticExitsByBackend; len(by) > 0 {
		fmt.Printf("dangling enters closed per backend: %v\n", by)
	}
}
