package capi_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	capi "capi"
	"capi/internal/ic"
	"capi/internal/prog"
	"capi/middleware"
)

// startWebService boots a fully-instrumented webservice instance plus the
// middleware service that drives request traffic through it.
func startWebService(t *testing.T, opts capi.RunOptions, workers int) (*capi.Instance, *middleware.Service) {
	t.Helper()
	session, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return inst, svc
}

// TestHTTPSLONarrowsToTarget is the end-to-end acceptance test for SLO
// mode: a webservice starts fully instrumented with the inline extrae
// backend charging its real per-event trace cost to each request's
// virtual clock, so the hot feed endpoint (hundreds of enter/exit pairs
// per request) misses a 5ms p99 by a wide margin. Driving seeded traffic
// must make the controller walk the demote → deselect ladder until every
// trafficked endpoint meets the target — while keeping the instrumentation
// it can afford, and while the sampler's conservation identity stays
// exact.
func TestHTTPSLONarrowsToTarget(t *testing.T) {
	const target = int64(5 * time.Millisecond)
	inst, svc := startWebService(t, capi.RunOptions{
		PatchAll:    true,
		Backends:    []string{"extrae"},
		Ranks:       2,
		HTTPWorkers: 4,
		Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: target},
		Sampling:    &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
	}, 4)

	full := inst.Status().ActiveFunctions
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30000; i++ {
		if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
			t.Fatal(err)
		}
	}

	st := inst.Status()
	if st.HTTP == nil || st.SLO == nil {
		t.Fatalf("status missing http/slo sections: http=%v slo=%v", st.HTTP, st.SLO)
	}
	if st.SLO.TargetP99Ms != 5 {
		t.Errorf("SLO target = %.2fms, want 5ms", st.SLO.TargetP99Ms)
	}
	if st.HTTP.Requests != 30000 {
		t.Errorf("HTTP requests = %d, want 30000", st.HTTP.Requests)
	}
	for _, ep := range st.SLO.Endpoints {
		if ep.Requests == 0 {
			continue
		}
		if !ep.Met {
			t.Errorf("endpoint %s: p99 %.2fms still misses the %.0fms SLO after 30000 requests",
				ep.Endpoint, ep.P99Ms, st.SLO.TargetP99Ms)
		}
	}

	// The controller must actually have narrowed — and stopped short of
	// stripping the instrumentation entirely (max coverage under the SLO).
	if inst.Status().Reconfigs == 0 {
		t.Error("SLO controller never reconfigured the selection")
	}
	active := inst.Status().ActiveFunctions
	if active >= full {
		t.Errorf("selection never narrowed: %d active of %d at start", active, full)
	}
	if active == 0 {
		t.Error("SLO controller stripped the selection bare; it must keep affordable coverage")
	}

	// Traffic has stopped; flush the per-rank sampler counters so the
	// conservation identity can be checked exactly, request traffic
	// included.
	inst.FlushSampling()
	c := inst.Sampling().Counters
	if c.Enters == 0 {
		t.Fatal("sampler accounted no enters")
	}
	if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
		t.Fatalf("conservation broken: delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
			c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
	}
	if d := inst.DroppedAsync(); d != 0 {
		t.Errorf("inline instance reported %d async-dropped pairs", d)
	}
}

// TestHTTPServeConservationInterleavings hammers a serving instance with
// concurrent request traffic while a mutator interleaves live control
// actions — SLO retunes, mid-phase re-selections, TTL'd overrides — in
// both inline and async dispatch modes, with an execution phase running
// under the traffic. Run with -race.
//
// The acceptance invariant, per interleaving: the sampler's conservation
// identity holds exactly (enters == delivered + sampled-out + suppressed
// + collapsed) and the independent race-count backend saw exactly the
// delivered enters minus the back-pressure-dropped pairs — no event
// invented, none lost untracked, even with the middleware feeding the
// async pipeline.
func TestHTTPServeConservationInterleavings(t *testing.T) {
	cases := []struct {
		name   string
		async  bool
		mutate string
	}{
		{"inline/retune", false, "retune"},
		{"inline/reselect", false, "reselect"},
		{"inline/ttl", false, "ttl"},
		{"async/retune", true, "retune"},
		{"async/reselect", true, "reselect"},
		{"async/ttl", true, "ttl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raceCounter.enters.Store(0)
			raceCounter.exits.Store(0)
			inst, svc := startWebService(t, capi.RunOptions{
				PatchAll:    true,
				Backends:    []string{"race-count"},
				Ranks:       2,
				HTTPWorkers: 4,
				Async:       tc.async,
				AsyncBuf:    256, // small ring: force back-pressure drops under load
				Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: int64(2 * time.Millisecond)},
				Sampling:    &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 2}},
			}, 4)

			all := inst.ActiveFunctionNames()
			if len(all) < 4 {
				t.Fatalf("webservice resolved only %d functions", len(all))
			}
			narrowIC := ic.New("webservice", "race", all[:len(all)/2])
			wideIC := ic.New("webservice", "race", all)
			narrow := &capi.Selection{IC: narrowIC, Selected: narrowIC.Len()}
			wide := &capi.Selection{IC: wideIC, Selected: wideIC.Len()}
			if tc.mutate == "ttl" {
				// TTL'd overrides revert to the last explicit selection;
				// a PatchAll start has none until one is installed.
				if _, err := inst.Reconfigure(wide); err != nil {
					t.Fatal(err)
				}
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // live control-plane mutator
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					switch tc.mutate {
					case "retune": // SLO target flaps: narrow hard, then relax
						target := int64(1 * time.Millisecond)
						if j%2 == 1 {
							target = int64(50 * time.Millisecond)
						}
						if _, err := inst.Retune(capi.AdaptOptions{SLOTargetP99Ns: target}); err != nil {
							t.Errorf("retune: %v", err)
							return
						}
					case "reselect": // fights the SLO controller's own reconfigs
						sel := narrow
						if j%2 == 1 {
							sel = wide
						}
						if _, err := inst.Reconfigure(sel); err != nil {
							t.Errorf("reconfigure: %v", err)
							return
						}
					case "ttl": // ephemeral probes expiring under live traffic
						if _, err := inst.ReconfigureTTL(narrow, time.Millisecond); err != nil {
							t.Errorf("reconfigure ttl: %v", err)
							return
						}
						if err := inst.SetSamplingTTL(capi.SamplingOptions{
							Default: &capi.SamplingPolicy{Stride: 8},
						}, time.Millisecond); err != nil {
							t.Errorf("sampling ttl: %v", err)
							return
						}
						time.Sleep(time.Millisecond / 2)
					}
				}
			}()

			const drivers, perDriver = 4, 1000
			var dwg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				dwg.Add(1)
				go func(seed int64) {
					defer dwg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < perDriver; i++ {
						if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
							t.Errorf("do: %v", err)
							return
						}
					}
				}(int64(d + 1))
			}

			// An execution phase runs underneath the request traffic, so
			// the control actions above really are mid-phase.
			if _, err := inst.Run(); err != nil {
				t.Fatal(err)
			}

			dwg.Wait()
			close(done)
			wg.Wait()

			// Everything is quiescent now: drain what is still in flight
			// in the async shards, then publish the exact per-rank
			// counters — HTTP worker ranks included.
			inst.DrainPipeline()
			inst.FlushSampling()

			c := inst.Sampling().Counters
			if c.Enters == 0 {
				t.Fatal("sampler accounted no enters")
			}
			if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
				t.Fatalf("conservation broken: delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
					c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
			}
			dropped := inst.DroppedAsync()
			if !tc.async && dropped != 0 {
				t.Errorf("inline instance reported %d async-dropped pairs", dropped)
			}
			if got, want := raceCounter.enters.Load(), c.Delivered-dropped; got != want {
				t.Fatalf("backend saw %d enters; sampler delivered %d, ring dropped %d pairs — %d unaccounted",
					got, c.Delivered, dropped, want-got)
			}
		})
	}
}

// TestAdaptivePhasesUnderTraffic runs three phases of an SLO-adaptive
// serving instance while request traffic keeps dispatching on the worker
// ranks. Every phase after the first re-arms the controller for the fresh
// world; that must leave the worker ranks' state to the workers. Run with
// -race.
func TestAdaptivePhasesUnderTraffic(t *testing.T) {
	inst, svc := startWebService(t, capi.RunOptions{
		PatchAll:    true,
		Ranks:       2,
		HTTPWorkers: 2,
		Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: int64(5 * time.Millisecond)},
		Sampling:    &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
	}, 2)
	runPhasesUnderTraffic(t, inst, svc)
}

// TestPhaseBoundaryUnderTraffic runs three phases of a serving instance per
// built-in backend while request traffic keeps dispatching on the worker
// ranks: each phase boundary replaces the backend's measurement under the
// workers' feet, which they must observe synchronized. Run with -race.
func TestPhaseBoundaryUnderTraffic(t *testing.T) {
	for _, backend := range []string{"extrae", "scorep", "talp"} {
		t.Run(backend, func(t *testing.T) {
			inst, svc := startWebService(t, capi.RunOptions{
				PatchAll:    true,
				Backends:    []string{backend},
				Ranks:       2,
				HTTPWorkers: 2,
				Sampling:    &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
			}, 2)
			runPhasesUnderTraffic(t, inst, svc)
		})
	}
}

// runPhasesUnderTraffic runs three phases while two goroutines drive
// requests, then checks the run count and the sampler's conservation
// identity.
func runPhasesUnderTraffic(t *testing.T, inst *capi.Instance, svc *middleware.Service) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for d := range 2 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
					t.Errorf("do: %v", err)
					return
				}
			}
		}(int64(d + 1))
	}
	var runErr error
	for range 3 {
		if _, runErr = inst.Run(); runErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := inst.Status()
	if st.Runs != 3 || st.HTTP == nil || st.HTTP.Requests == 0 {
		t.Fatalf("runs %d, http %+v", st.Runs, st.HTTP)
	}
	inst.FlushSampling()
	c := inst.Sampling().Counters
	if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; c.Enters == 0 || got != c.Enters {
		t.Fatalf("conservation broken: %+v", c)
	}
}

// TestSetBackendsCoversWorkerRanks swaps the backend set of a serving
// instance to the two backends that keep per-rank arrays and drives events
// on the middleware's worker ranks, which sit past the MPI world: the
// swapped-in backends must be sized for them like the ones Start built.
func TestSetBackendsCoversWorkerRanks(t *testing.T) {
	session, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{
		PatchAll:    true,
		Ranks:       2,
		HTTPWorkers: 2,
		Sampling:    &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	id, ok := inst.ResolveFunctionName(inst.ActiveFunctionNames()[0])
	if !ok {
		t.Fatal("active function does not resolve")
	}
	workers, err := inst.NewRequestContexts(2)
	if err != nil {
		t.Fatal(err)
	}
	var enters int64
	for _, backend := range []string{"scorep", "extrae"} {
		if _, err := inst.SetBackends([]string{backend}); err != nil {
			t.Fatal(err)
		}
		for range 10 {
			for _, rc := range workers {
				rc.Enter(id)
				rc.Advance(1000)
				rc.Exit(id)
				enters++
			}
		}
		st := inst.Status()
		if st.DroppedPanicked != 0 || len(st.Breaker) != 0 || len(st.DetachedBackends) != 0 {
			t.Fatalf("%s on worker ranks: droppedPanicked=%d breaker=%+v detached=%v",
				backend, st.DroppedPanicked, st.Breaker, st.DetachedBackends)
		}
	}
	inst.FlushSampling()
	if c := inst.Sampling().Counters; c.Enters != enters || c.Delivered != enters {
		t.Fatalf("enters=%d delivered=%d, want %d each", c.Enters, c.Delivered, enters)
	}
}

// TestRequestContextsOwnCacheLines: every event writes its context's clock,
// so no two contexts — of one NewRequestContexts call or of consecutive
// calls — may share a 64-byte line (a sharing pair of workers costs 84 →
// 300 ns/event, bench/noise.md).
func TestRequestContextsOwnCacheLines(t *testing.T) {
	session, err := capi.NewAppSession("quickstart", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{PatchAll: true, Ranks: 1, HTTPWorkers: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	lines := map[uintptr]int{}
	for _, n := range []int{1, 8, 3, 12} {
		rcs, err := inst.NewRequestContexts(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range rcs {
			line := uintptr(unsafe.Pointer(rc)) >> 6
			if other, shared := lines[line]; shared {
				t.Fatalf("request contexts of ranks %d and %d share cache line %#x", other, rc.RankID(), line<<6)
			}
			if end := (uintptr(unsafe.Pointer(rc)) + unsafe.Sizeof(*rc) - 1) >> 6; end != line {
				t.Fatalf("request context of rank %d straddles two cache lines", rc.RankID())
			}
			lines[line] = rc.RankID()
		}
	}
}

// TestResolveFunctionNameDuplicateSymbol: a DSO symbol renamed after compile
// to a name the executable defines leaves that name resolving — through the
// build's packed-ID table — to the executable's function only; the renamed
// function resolves by neither name, and an unknown or hidden name to
// nothing.
func TestResolveFunctionNameDuplicateSymbol(t *testing.T) {
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("lib.so", prog.SharedObject)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 30,
		Ops: []prog.Op{prog.Call("kernel", 1), prog.Call("dso_fn", 1), prog.Call("hidden_fn", 1)}})
	p.MustAddFunc(&prog.Function{Name: "kernel", Unit: "app.exe", Statements: 40})
	p.MustAddFunc(&prog.Function{Name: "dso_fn", Unit: "lib.so", Statements: 50})
	p.MustAddFunc(&prog.Function{Name: "hidden_fn", Unit: "lib.so", Statements: 50, Visibility: prog.Hidden})
	session, err := capi.NewSession(p, capi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// lib.so's dso_fn is renamed "kernel" after compile.
	lib := session.Build().Image("lib.so")
	for i, s := range lib.Symbols {
		if s.Name == "dso_fn" {
			lib.Symbols[i].Name = "kernel"
		}
	}
	static, err := session.Build().StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{PatchAll: true, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if id, ok := inst.ResolveFunctionName("kernel"); !ok || id != static["kernel"] {
		t.Fatalf("ResolveFunctionName(kernel) = %#x, %v; want the executable's %#x", id, ok, static["kernel"])
	}
	if id, ok := inst.ResolveFunctionName("main"); !ok || id != static["main"] {
		t.Fatalf("ResolveFunctionName(main) = %#x, %v; want %#x", id, ok, static["main"])
	}
	for _, name := range []string{"dso_fn", "hidden_fn", "nope"} {
		if id, ok := inst.ResolveFunctionName(name); ok {
			t.Fatalf("ResolveFunctionName(%s) = %#x, want no match", name, id)
		}
	}
}

// TestReregisterEndpointWhileServing re-registers a route over and over
// while requests are recorded into it, the SLO controller evaluates it and
// status readers render it. The route's function set is published whole,
// so no reader sees it half written; run with -race.
func TestReregisterEndpointWhileServing(t *testing.T) {
	inst, svc := startWebService(t, capi.RunOptions{
		PatchAll:    true,
		Ranks:       1,
		HTTPWorkers: 2,
		// Every evaluation misses the target, so each one reads the
		// endpoint's function set to pick its step.
		Adapt: &capi.AdaptOptions{SLOTargetP99Ns: int64(time.Microsecond)},
	}, 2)
	route := capi.WebserviceEndpoints()[0].Route
	distinct := map[int32]bool{}
	var ids []int32
	for _, name := range inst.ActiveFunctionNames() {
		if id, ok := inst.ResolveFunctionName(name); ok {
			ids = append(ids, id)
			distinct[id] = true
		}
	}
	const requests = 1000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func(k int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				body(k)
			}
		}()
	}
	loop(func(k int) { inst.RegisterHTTPEndpoint(route, ids[:1+k%len(ids)]) })
	loop(func(int) { inst.Status() })
	for range requests {
		if _, err := svc.Do(route); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	inst.RegisterHTTPEndpoint(route, ids)
	st := inst.Status()
	for _, row := range st.HTTP.Endpoints {
		if row.Endpoint != route {
			continue
		}
		if row.Requests != requests || row.TotalFunctions != len(distinct) {
			t.Fatalf("%s: %d requests over %d functions, want %d over %d", route, row.Requests, row.TotalFunctions, requests, len(distinct))
		}
		return
	}
	t.Fatalf("%s missing from status: %+v", route, st.HTTP.Endpoints)
}

// TestSLOWindowRetuneReadsRecordedRequests: the SLO window is the newest N
// of the latencies the endpoint already recorded, so a window retune is a
// warm start like a target retune. After 300 requests under a target
// nothing misses, a retune to a 128-request window and a target every
// request misses must take a ladder step within the next evaluation's 32
// requests, without waiting for the window to refill.
func TestSLOWindowRetuneReadsRecordedRequests(t *testing.T) {
	inst, svc := startWebService(t, capi.RunOptions{
		PatchAll:    true,
		Ranks:       1,
		HTTPWorkers: 1,
		Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: int64(time.Hour)},
	}, 1)
	route := capi.WebserviceEndpoints()[0].Route
	serve := func(n int) {
		t.Helper()
		for range n {
			if _, err := svc.Do(route); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve(300)
	if _, err := inst.Retune(capi.AdaptOptions{SLOWindow: 128, SLOTargetP99Ns: int64(time.Microsecond)}); err != nil {
		t.Fatal(err)
	}
	serve(32)
	for _, row := range inst.Status().SLO.Endpoints {
		if row.Endpoint == route {
			if row.Steps == 0 {
				t.Fatalf("%s holds no ladder step 32 requests after the retune: %+v", route, row)
			}
			return
		}
	}
	t.Fatalf("%s missing from the SLO status", route)
}
