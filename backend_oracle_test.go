package capi

import (
	"maps"
	"testing"
)

// initSwapFacts is what TestInitReportAndSwapPerBackendSet pins per
// backend set.
type initSwapFacts struct {
	scanned, injected int
	initNs, swapNs    int64
	synth             map[string]int
}

// TestInitReportAndSwapPerBackendSet pins what initialization and a live
// backend swap cost and reach for each built-in backend set: the runtime's
// init report (symbols scanned, DSO symbols injected, T_init), then the
// BackendSwapReport of replacing the set with a fresh one of the same names
// while a request context is two frames deep in an active function (the
// swap's start-up cost and the synthetic exits each departing backend
// closed). Quickstart has no DSOs; OpenFOAM at scale 0.02 has six, so only
// its rows inject. The numbers are virtual-time facts, deterministic per
// (app, selection, ranks): a change here is a change in what the backends
// receive.
func TestInitReportAndSwapPerBackendSet(t *testing.T) {
	sets := [][]string{{"none"}, {"talp"}, {"scorep"}, {"extrae"}, {"talp", "scorep", "extrae"}}
	scorep2 := map[string]int{"scorep": 2}
	apps := []struct {
		name string
		prog *Program
		want []initSwapFacts // parallel to sets
	}{
		{"quickstart", Quickstart(), []initSwapFacts{
			{11, 0, 25190000, 0, nil},
			{11, 0, 575190000, 550000000, nil},
			{11, 0, 1875267000, 1850077000, scorep2},
			{11, 0, 425190000, 400000000, nil},
			{11, 0, 2825267000, 2800077000, scorep2},
		}},
		{"openfoam", OpenFOAM(OpenFOAMOptions{Scale: 0.02, Timesteps: 1, PCGIters: 2}), []initSwapFacts{
			{1869, 0, 54406000, 0, nil},
			{1869, 0, 604406000, 550000000, nil},
			{1869, 1864, 1917489000, 1863083000, scorep2},
			{1869, 0, 454406000, 400000000, nil},
			{1869, 1864, 2867489000, 2813083000, scorep2},
		}},
	}
	for _, app := range apps {
		s, err := NewSession(app.prog, SessionOptions{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := s.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`)
		if err != nil {
			t.Fatal(err)
		}
		for k, names := range sets {
			got, want := initAndSwap(t, s, sel, names), app.want[k]
			if got.scanned != want.scanned || got.injected != want.injected ||
				got.initNs != want.initNs || got.swapNs != want.swapNs || !maps.Equal(got.synth, want.synth) {
				t.Errorf("%s %v: got %+v, want %+v", app.name, names, got, want)
			}
		}
	}
}

// initAndSwap starts names on sel, runs one phase, enters the first active
// function twice on a request context and swaps in a fresh set of names.
func initAndSwap(t *testing.T, s *Session, sel *Selection, names []string) initSwapFacts {
	t.Helper()
	inst, err := s.Start(sel, RunOptions{Backends: names, Ranks: 2, HTTPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	init := inst.rt.Report()
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	rcs, err := inst.NewRequestContexts(1)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := inst.ResolveFunctionName(inst.ActiveFunctionNames()[0])
	if !ok {
		t.Fatal("first active function does not resolve")
	}
	rcs[0].Enter(id)
	rcs[0].Enter(id)
	swap, err := inst.SetBackends(names)
	if err != nil {
		t.Fatal(err)
	}
	return initSwapFacts{init.SymbolsScanned, init.SymbolsInjected, init.InitVirtualNs, swap.VirtualNs, swap.SyntheticExitsByBackend}
}
