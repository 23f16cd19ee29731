package capi_test

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	capi "capi"
)

// countingBackend is a custom measurement backend: one type implementing
// MeasurementBackend, and one registry call. The event methods see every
// enter and exit with the executing rank's context; StartPhase attaches
// fresh state per phase and Report files through the envelope — the shape
// of the built-in TALP, Score-P and Extrae backends.
type countingBackend struct{ enters, exits atomic.Int64 }

// The events.
func (b *countingBackend) Name() string                                     { return "test-counter" }
func (b *countingBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) { b.enters.Add(1) }
func (b *countingBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc)  { b.exits.Add(1) }
func (b *countingBackend) InitCost(int) int64                               { return 0 }

// The phase lifecycle.
func (b *countingBackend) StartPhase(*capi.World) error { return nil }
func (b *countingBackend) Report() capi.Report {
	return capi.JSONReport{ReportKind: "counter", Value: map[string]int64{
		"enters": b.enters.Load(),
		"exits":  b.exits.Load(),
	}}
}

func init() {
	capi.RegisterBackend("test-counter", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return &countingBackend{}, nil
	})
}

// mpiCommSpec selects the call paths to MPI communication, minus functions
// from system headers and inline ones.
const mpiCommSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

// A registered backend is selected by name, alone or next to a built-in,
// and its report is read from the run's envelope (or from GET /v1/report
// of `capi serve -backend talp,test-counter`).
func ExampleRegisterBackend() {
	session, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	sel, err := session.Select(mpiCommSpec)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := session.Run(sel, capi.RunOptions{Backends: []string{"talp", "test-counter"}, Ranks: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := res.Reports["test-counter"]
	counts, err := json.Marshal(rep)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Backends, rep.Kind(), string(counts))
	// Output: [talp test-counter] counter {"enters":102,"exits":102}
}

// A TTL'd probe narrows a running instance's selection for a while and
// reverts to the standing one by itself; the revert is a normal
// Reconfigure, announced to the SetTTLNotify callback. Over HTTP the same
// probe is POST /v1/select with a "ttl".
func ExampleInstance_ReconfigureTTL() {
	session, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	standing, err := session.Select(mpiCommSpec)
	if err != nil {
		fmt.Println(err)
		return
	}
	inst, err := session.Start(standing, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer inst.Close()
	reverted := make(chan capi.TTLExpiry, 1)
	inst.SetTTLNotify(func(e capi.TTLExpiry) { reverted <- e })
	fmt.Println("standing:", len(inst.ActiveFunctionNames()), "active")

	probe, err := session.Select(`byName("main", %%)`)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := inst.ReconfigureTTL(probe, 20*time.Millisecond)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The report, not a second read, shows the probe: the revert may land
	// any time after 20 ms.
	fmt.Println("probe:", rep.Active, "active", probe.IC.Include)

	e := <-reverted
	fmt.Println("reverted:", e.Kind+",", len(inst.ActiveFunctionNames()), "active")
	// Output:
	// standing: 3 active
	// probe: 1 active [main]
	// reverted: select, 3 active
}
