package capi_test

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	capi "capi"
)

// countingBackend is a custom measurement backend: one type with two
// faces and one registry call. The hot path (EventBackend) sees every
// enter and exit with the executing rank's context; the lifecycle face
// (MeasurementBackend) attaches fresh state per phase and reports through
// the envelope. Events returns the type itself, the way the built-in TALP,
// Score-P and Extrae backends do.
type countingBackend struct{ enters, exits atomic.Int64 }

// The event face.
func (b *countingBackend) Name() string                                     { return "test-counter" }
func (b *countingBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) { b.enters.Add(1) }
func (b *countingBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc)  { b.exits.Add(1) }
func (b *countingBackend) InitCost(int) int64                               { return 0 }

// The lifecycle face.
func (b *countingBackend) Events() capi.EventBackend    { return b }
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

// A registered backend is selected by name, alone or next to a built-in,
// and its report is read from the run's envelope (or from GET /v1/report
// of `capi serve -backend talp,test-counter`).
func ExampleRegisterBackend() {
	session, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	sel, err := session.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`)
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
