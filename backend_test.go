package capi_test

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	capi "capi"
)

// TestCustomRegisteredBackendEndToEnd walks ExampleRegisterBackend's
// cookbook: register → select by name (alongside a built-in) → run → read
// the envelope.
func TestCustomRegisteredBackendEndToEnd(t *testing.T) {
	found := false
	for _, name := range capi.RegisteredBackends() {
		if name == "test-counter" {
			found = true
		}
	}
	if !found {
		t.Fatalf("test-counter not in registry: %v", capi.RegisteredBackends())
	}

	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sel, capi.RunOptions{Backends: []string{"talp", "test-counter"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backends) != 2 || res.Backends[1] != "test-counter" {
		t.Fatalf("run backends = %v", res.Backends)
	}
	// Both the built-in and the custom backend fed from one event stream.
	if talpOf(res) == nil || res.Reports["talp"] == nil {
		t.Fatal("talp report missing from the fan-out run")
	}
	rep := res.Reports["test-counter"]
	if rep == nil || rep.Kind() != "counter" {
		t.Fatalf("custom report = %v", rep)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]int64
	if err := json.Unmarshal(raw, &counts); err != nil {
		t.Fatal(err)
	}
	if counts["enters"] == 0 || counts["enters"] != counts["exits"] {
		t.Fatalf("custom backend counted %v, want balanced nonzero enters/exits", counts)
	}
	if res.Events == 0 {
		t.Fatal("no events dispatched")
	}
}

// TestBackendValidation: unknown names fail fast with the registered list,
// duplicates are rejected, and the single-Backend shim still resolves.
func TestBackendValidation(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Start(sel, capi.RunOptions{Backends: []string{"bogus"}, Ranks: 2})
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown backend error = %v", err)
	}
	_, err = s.Start(sel, capi.RunOptions{Backends: []string{"talp", "talp"}, Ranks: 2})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate backend error = %v", err)
	}
	_, err = s.Start(sel, capi.RunOptions{Backends: []string{"bogus"}, Ranks: 2})
	if err == nil {
		t.Fatal("unknown shim backend must fail")
	}
	if _, err := capi.ParseBackends("talp, extrae"); err != nil {
		t.Fatalf("ParseBackends with spaces: %v", err)
	}
	if _, err := capi.ParseBackends("talp,nope"); err == nil {
		t.Fatal("ParseBackends must reject unknown names")
	}
	if _, err := capi.ParseBackends(""); err == nil {
		t.Fatal("ParseBackends must reject an empty list")
	}
}

// TestExtraeNamesSurvivePhasesAndSwaps: trace records carry function IDs
// only, and the report names them through the runtime's function table. A
// phase boundary (a fresh buffer) and a live swap (a fresh guarded tracer
// behind a mux) must both keep the hottest function named.
func TestExtraeNamesSurvivePhasesAndSwaps(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"extrae"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	hottest := ""
	for phase, swapTo := range [][]string{nil, nil, {"talp", "extrae"}} {
		if swapTo != nil {
			if _, err := inst.SetBackends(swapTo); err != nil {
				t.Fatal(err)
			}
		}
		res, err := inst.Run()
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		if err := traceOf(res).WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if phase == 0 {
			hottest = traceOf(res).ByFunc[0].Name
		}
		if hot := traceOf(res).ByFunc[0].Name; hot == "" || hot != hottest || !strings.Contains(text.String(), hot+" ") {
			t.Fatalf("phase %d: hottest function %q (phase 0: %q) not named:\n%s", phase, hot, hottest, text.String())
		}
	}
}

// TestInstanceSetBackendsLive: the in-process backend swap — TALP out,
// extrae in — keeps the selection patched and redirects the next phase's
// events; the deprecated typed accessors follow the attached set.
func TestInstanceSetBackendsLive(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	active := inst.Status().ActiveFunctions
	swap, err := inst.SetBackends([]string{"extrae"})
	if err != nil {
		t.Fatal(err)
	}
	if swap.From != "talp" || swap.To != "extrae" || swap.VirtualNs <= 0 {
		t.Fatalf("swap report = %+v", swap)
	}
	if inst.Status().ActiveFunctions != active {
		t.Fatalf("swap changed the selection: %d -> %d", active, inst.Status().ActiveFunctions)
	}
	if inst.Reports()["talp"] != nil {
		t.Fatal("detached talp backend still visible")
	}
	res, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if traceOf(res) == nil || res.Reports["extrae"] == nil {
		t.Fatal("no trace from the swapped-in backend")
	}
	if talpOf(res) != nil {
		t.Fatal("detached backend produced a report")
	}
	// The swap's virtual cost was billed to the phase that followed it.
	if res.InitSeconds <= 0 {
		t.Fatalf("swap cost not billed: init = %f", res.InitSeconds)
	}
}

// TestSwapKeepsRegistryNames: a backend has one name, the one it is
// registered under, wherever it is named — the swap report, Backends(),
// the report keys and the breaker's stats and detach. The discarding
// backend reads "none" in the report of the swap that replaces it.
func TestSwapKeepsRegistryNames(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"none"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if got := inst.Backends(); !slices.Equal(got, []string{"none"}) {
		t.Fatalf("Backends() = %v, want [none]", got)
	}
	swap, err := inst.SetBackends([]string{"talp"})
	if err != nil {
		t.Fatal(err)
	}
	if swap.From != "none" || swap.To != "talp" {
		t.Fatalf("swap none → talp reported from %q to %q", swap.From, swap.To)
	}
	res, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Backends, []string{"talp"}) || !slices.Equal(slices.Sorted(maps.Keys(res.Reports)), []string{"talp"}) {
		t.Fatalf("run backends %v, report keys %v; want talp", res.Backends, slices.Sorted(maps.Keys(res.Reports)))
	}

	trips := make(chan capi.BreakerEvent, 1)
	inst.SetBreakerNotify(func(ev capi.BreakerEvent) { trips <- ev })
	if _, err := inst.SetBackends([]string{"scorep", "test-panic"}); err != nil {
		t.Fatal(err)
	}
	if got := inst.Backends(); !slices.Equal(got, []string{"scorep", "test-panic"}) {
		t.Fatalf("Backends() = %v, want [scorep test-panic]", got)
	}
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-trips:
		if ev.Backend != "test-panic" || !ev.Detached {
			t.Fatalf("breaker event = %+v, want test-panic detached", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("breaker never tripped")
	}
	st := inst.Status()
	if len(st.Breaker) != 1 || st.Breaker[0].Backend != "test-panic" || !slices.Equal(st.DetachedBackends, []string{"test-panic"}) {
		t.Fatalf("breaker stats %+v, detached %v; want test-panic", st.Breaker, st.DetachedBackends)
	}
	if got := inst.Backends(); !slices.Equal(got, []string{"scorep"}) {
		t.Fatalf("Backends() after the detach = %v, want [scorep]", got)
	}
	if keys := slices.Sorted(maps.Keys(inst.Reports())); !slices.Equal(keys, []string{"scorep"}) {
		t.Fatalf("report keys after the detach = %v, want [scorep]", keys)
	}
}
