package capi_test

import (
	"slices"
	"strings"
	"testing"

	capi "capi"
)

const quickSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

func newQuickSession(t *testing.T) *capi.Session {
	t.Helper()
	s, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// talpOf, profileOf and traceOf are the typed reads of a result's built-in
// reports; nil when the backend was not attached.
func talpOf(res *capi.RunResult) *capi.TALPReport {
	rep, _ := capi.ReportOf[*capi.TALPReport](res.Reports, "talp")
	return rep
}

func profileOf(res *capi.RunResult) *capi.Profile {
	rep, _ := capi.ReportOf[*capi.Profile](res.Reports, "scorep")
	return rep
}

func traceOf(res *capi.RunResult) *capi.TraceReport {
	rep, _ := capi.ReportOf[*capi.TraceReport](res.Reports, "extrae")
	return rep
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := capi.NewSession(nil, capi.SessionOptions{}); err == nil {
		t.Fatal("nil program must fail")
	}
}

func TestSessionSelect(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sel.IC.Len() == 0 {
		t.Fatal("empty selection")
	}
	for _, want := range []string{"main", "exchange_halo", "compute_residual"} {
		if !sel.IC.Contains(want) {
			t.Fatalf("selection misses %s: %v", want, sel.IC.Include)
		}
	}
	if sel.IC.Contains("stencil_kernel") {
		t.Fatal("pure compute kernel must not be on the MPI selection")
	}
	if sel.Pre < sel.Selected {
		t.Fatalf("pre %d < selected %d", sel.Pre, sel.Selected)
	}
}

func TestSessionSelectBadSpec(t *testing.T) {
	s := newQuickSession(t)
	if _, err := s.Select(`bogus(%%`); err == nil {
		t.Fatal("syntax error must be reported")
	}
	if _, err := s.Select(`unknownSelector(%%)`); err == nil {
		t.Fatal("unknown selector must be reported")
	}
	if _, err := s.Select(""); err == nil {
		t.Fatal("empty spec must be reported")
	}
}

func TestSessionRunBackends(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	van, err := s.RunVanilla(2)
	if err != nil {
		t.Fatal(err)
	}

	talpRes, err := s.Run(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if talpOf(talpRes) == nil {
		t.Fatal("no TALP report")
	}
	if talpOf(talpRes).Region("exchange_halo") == nil {
		t.Fatal("exchange_halo region not measured by TALP")
	}
	if talpRes.TotalSeconds <= van {
		t.Fatalf("instrumented run %v not above vanilla %v", talpRes.TotalSeconds, van)
	}

	spRes, err := s.Run(sel, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if profileOf(spRes) == nil {
		t.Fatal("no Score-P profile")
	}
	if profileOf(spRes).Region("compute_residual") == nil {
		t.Fatal("compute_residual not in profile")
	}
}

func TestSessionRunInactiveSledsNearVanilla(t *testing.T) {
	s := newQuickSession(t)
	van, err := s.RunVanilla(2)
	if err != nil {
		t.Fatal(err)
	}
	// nil selection + no PatchAll: sleds inserted but never patched.
	res, err := s.Run(nil, capi.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patched != 0 || res.Events != 0 {
		t.Fatalf("inactive run patched %d, events %d", res.Patched, res.Events)
	}
	delta := (res.TotalSeconds - van) / van
	if delta < 0 || delta > 0.01 {
		t.Fatalf("inactive sled overhead %.4f outside [0,1%%]", delta)
	}
}

// TestRunVanillaHonoursSkew: the vanilla baseline runs under the session's
// per-rank load imbalance, as every instrumented run does — otherwise a
// skewed session reports the skew as sled overhead.
func TestRunVanillaHonoursSkew(t *testing.T) {
	s, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 8}),
		capi.SessionOptions{OptLevel: 3, RankWorkSkew: []float64{1.0, 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	van, err := s.RunVanilla(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil, capi.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := (res.TotalSeconds - van) / res.TotalSeconds; d < -0.01 || d > 0.01 {
		t.Fatalf("vanilla %.2fs vs xray inactive %.2fs: not within 1%%", van, res.TotalSeconds)
	}
}

func TestSessionRunPatchAll(t *testing.T) {
	s := newQuickSession(t)
	full, err := s.Run(nil, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := s.Run(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Patched <= filtered.Patched {
		t.Fatalf("full patched %d <= filtered %d", full.Patched, filtered.Patched)
	}
	if full.TotalSeconds <= filtered.TotalSeconds {
		t.Fatalf("full run %v not above filtered %v", full.TotalSeconds, filtered.TotalSeconds)
	}
}

// TestRefinementLoop exercises the Fig. 1 adjust cycle: measure, find the
// most expensive region, exclude it by name, re-select and re-run without
// recompiling; the refined run must patch fewer functions and cost less.
func TestRefinementLoop(t *testing.T) {
	s := newQuickSession(t)
	sel1, err := s.Select(`excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(callPathTo(flops(">=", 10, %%)), %excluded)
`)
	if err != nil {
		t.Fatal(err)
	}
	run1, err := s.Run(sel1, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "stencil_kernel produced too much overhead" — refine it away.
	if !sel1.IC.Contains("stencil_kernel") {
		t.Fatal("precondition: stencil_kernel selected")
	}
	sel2, err := s.Select(`excluded = join(inSystemHeader(%%), inlineSpecified(%%))
hot = byName("^stencil_kernel$", %%)
subtract(subtract(callPathTo(flops(">=", 10, %%)), %excluded), %hot)
`)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.IC.Contains("stencil_kernel") {
		t.Fatal("refinement did not exclude stencil_kernel")
	}
	if sel2.IC.Len() >= sel1.IC.Len() {
		t.Fatalf("refined IC %d not smaller than %d", sel2.IC.Len(), sel1.IC.Len())
	}
	run2, err := s.Run(sel2, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if run2.TotalSeconds >= run1.TotalSeconds {
		t.Fatalf("refined run %v not below %v", run2.TotalSeconds, run1.TotalSeconds)
	}
	// The dynamic turnaround must beat the static recompile by a wide
	// margin (§VII-A).
	if run2.InitSeconds >= s.RecompileSeconds() {
		t.Fatalf("patch init %v not below recompile %v", run2.InitSeconds, s.RecompileSeconds())
	}
}

func TestSessionUnknownBackend(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(sel, capi.RunOptions{Backends: []string{"vampir"}, Ranks: 2}); err == nil ||
		!strings.Contains(err.Error(), "backend") {
		t.Fatalf("unknown backend error missing, got %v", err)
	}
}

// TestAttachStaticIDs exercises the §VI-B(a) extension through the facade:
// a hidden DSO function can only be patched once static IDs are attached.
func TestAttachStaticIDs(t *testing.T) {
	s, err := capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 1, PCGIters: 2}),
		capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Select the hidden static initializers by name — unreachable for
	// name-based resolution.
	sel, err := s.Select(`byName("^_GLOBAL__sub_I_", %%)`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.IC.Len() == 0 {
		t.Fatal("no static initializers selected")
	}
	plain, err := s.Run(sel, capi.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Patched != 0 {
		t.Fatalf("hidden functions patched by name: %d", plain.Patched)
	}
	if err := s.AttachStaticIDs(sel); err != nil {
		t.Fatal(err)
	}
	static, err := s.Build().StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for _, name := range sel.IC.Include {
		if id, ok := static[name]; ok {
			want = append(want, id)
		}
	}
	if slices.Sort(want); !slices.Equal(sel.IC.IncludeIDs, want) {
		t.Fatalf("attached IDs %v, want the build's static IDs of the IC's names %v", sel.IC.IncludeIDs, want)
	}
	withIDs, err := s.Run(sel, capi.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if withIDs.Patched == 0 {
		t.Fatal("static IDs did not patch the hidden functions")
	}
	if withIDs.Events == 0 {
		t.Fatal("patched static initializers produced no events")
	}
}

func TestSessionCustomModules(t *testing.T) {
	s, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{
		OptLevel: 2,
		Modules: capi.MapModules{
			"site.capi": "site_excluded = inSystemHeader(%%)\n",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Select(`!import("site.capi")
subtract(%%, %site_excluded)
`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.IC.Len() == 0 {
		t.Fatal("empty selection via custom module")
	}
}

// TestLiveInstanceReconfigure exercises the Fig. 1 loop without leaving the
// process: one instance, refined in place between execution phases.
func TestLiveInstanceReconfigure(t *testing.T) {
	s := newQuickSession(t)
	sel1, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel1, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Events == 0 || res1.InitSeconds <= 0 {
		t.Fatalf("phase 1: events %d, init %v", res1.Events, res1.InitSeconds)
	}
	if talpOf(res1) == nil {
		t.Fatal("phase 1: no TALP report")
	}

	// Narrow the selection live: coarse regions only.
	sel2, err := s.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
coarse(subtract(%mpi_comm, %excluded))
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := inst.Reconfigure(sel2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unpatched == 0 {
		t.Fatalf("narrowing unpatched nothing: %+v", rep)
	}
	if rep.Batch.BatchFuncs != int64(rep.Patched+rep.Unpatched) {
		t.Fatalf("batch touched %d funcs, delta is %d", rep.Batch.BatchFuncs, rep.Patched+rep.Unpatched)
	}
	res2, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Events >= res1.Events {
		t.Fatalf("narrowed phase produced %d events >= %d", res2.Events, res1.Events)
	}
	// The second phase paid only the re-patch, not a full re-init.
	if res2.InitSeconds >= res1.InitSeconds {
		t.Fatalf("live turnaround %v not below T_init %v", res2.InitSeconds, res1.InitSeconds)
	}
	if talpOf(res2) == nil {
		t.Fatal("phase 2: no TALP report")
	}
	if inst.Status().Reconfigs != 1 {
		t.Fatalf("reconfigs = %d", inst.Status().Reconfigs)
	}
	if got := inst.Status().ActiveFunctions; got != res2.ActiveFuncs || got == 0 {
		t.Fatalf("active functions = %d (result says %d)", got, res2.ActiveFuncs)
	}
}

// TestRunWithAdaptController exercises the public Adapt wiring: a tight
// budget must trigger live narrowing during a plain Session.Run — past the
// demote rung, down to deselection; TestAdaptDemoteLadderEndToEnd follows
// the ladder rung by rung.
func TestRunWithAdaptController(t *testing.T) {
	s := newQuickSession(t)
	res, err := s.Run(nil, capi.RunOptions{
		Ranks:    2,
		PatchAll: true,
		Adapt:    &capi.AdaptOptions{Budget: 0.000001},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two windows: the first demotes, the second drops in one re-selection.
	if res.Reconfigs != 1 || len(res.AdaptEpochs) != 2 {
		t.Fatalf("%d re-selections over %d epochs, want 1 over 2", res.Reconfigs, len(res.AdaptEpochs))
	}
	if len(res.DroppedFuncs) == 0 || len(res.AdaptEpochs) == 0 {
		t.Fatalf("adaptation not reported: dropped %v, epochs %d", res.DroppedFuncs, len(res.AdaptEpochs))
	}
	if res.ActiveFuncs >= res.Patched {
		t.Fatalf("active %d not below initially patched %d", res.ActiveFuncs, res.Patched)
	}
	reconfigured := false
	for _, ep := range res.AdaptEpochs {
		if ep.Reconfigured {
			reconfigured = true
			if ep.Report.Batch.BatchFuncs == 0 {
				t.Fatalf("reconfigured epoch did no batch work: %+v", ep.Report)
			}
		}
	}
	if !reconfigured {
		t.Fatal("no reconfigured epoch recorded")
	}
}

// TestAdaptControllerStaysArmedAcrossPhases is the regression for the
// controller going dormant after the first phase: a fresh world restarts
// the rank clocks at zero, so the controller must be re-armed and hooked
// into the new world's collectives.
func TestAdaptControllerStaysArmedAcrossPhases(t *testing.T) {
	s := newQuickSession(t)
	inst, err := s.Start(nil, capi.RunOptions{
		Ranks:    2,
		PatchAll: true,
		Adapt:    &capi.AdaptOptions{Budget: 0.0001},
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.AdaptEpochs) == 0 {
		t.Fatal("phase 1: no epochs evaluated")
	}
	res2, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.AdaptEpochs) <= len(res1.AdaptEpochs) {
		t.Fatalf("controller dormant in phase 2: %d epochs then, %d now",
			len(res1.AdaptEpochs), len(res2.AdaptEpochs))
	}
}

// TestScorePProfileIsPerPhase pins the per-phase measurement semantics: a
// later phase's profile must not double-count earlier phases.
func TestScorePProfileIsPerPhase(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := profileOf(res1).Region("exchange_halo"), profileOf(res2).Region("exchange_halo")
	if r1 == nil || r2 == nil {
		t.Fatal("exchange_halo missing from a phase profile")
	}
	if r2.Visits != r1.Visits {
		t.Fatalf("phase 2 visits %d != phase 1 visits %d — profile accumulated across phases", r2.Visits, r1.Visits)
	}
}

// TestRunWithExtraeTrace exercises the trace backend end to end: every
// dispatched event must land in the sharded buffer, the merged timeline
// must be virtual-time-ordered, and per-rank streams must be balanced.
func TestRunWithExtraeTrace(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sel, capi.RunOptions{Backends: []string{"extrae"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if traceOf(res) == nil {
		t.Fatal("no trace report")
	}
	if traceOf(res).Recorded != res.Events {
		t.Fatalf("trace recorded %d of %d dispatched events", traceOf(res).Recorded, res.Events)
	}
	if traceOf(res).Dropped != 0 || traceOf(res).Wrapped != 0 {
		t.Fatalf("unbounded buffer dropped/wrapped events: %+v", traceOf(res))
	}
	if len(traceOf(res).Ranks) != 2 {
		t.Fatalf("rank summaries = %d", len(traceOf(res).Ranks))
	}
	for _, rs := range traceOf(res).Ranks {
		if rs.Enters != rs.Exits {
			t.Fatalf("rank %d unbalanced: %d enters, %d exits", rs.Rank, rs.Enters, rs.Exits)
		}
	}
	if int64(len(traceOf(res).Timeline)) != traceOf(res).Recorded {
		t.Fatalf("timeline %d records, recorded %d", len(traceOf(res).Timeline), traceOf(res).Recorded)
	}
	for i := 1; i < len(traceOf(res).Timeline); i++ {
		if traceOf(res).Timeline[i].TimeNs < traceOf(res).Timeline[i-1].TimeNs {
			t.Fatal("merged timeline not virtual-time-ordered")
		}
	}
	if res.InitSeconds <= 0 {
		t.Fatal("tracer init cost not accounted")
	}
}

// TestExtraeTraceBoundedBuffer drives the same run through a tiny wrap-mode
// buffer: everything is still accounted, only the newest window survives.
func TestExtraeTraceBoundedBuffer(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{
		Backends: []string{"extrae"},
		Ranks:    2,
		Trace:    &capi.TraceOptions{BufEvents: 8, MaxEvents: 32, Wrap: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if traceOf(res).Recorded != res.Events {
		t.Fatalf("wrap mode rejected events: recorded %d of %d", traceOf(res).Recorded, res.Events)
	}
	if traceOf(res).Wrapped == 0 {
		t.Fatal("tiny buffer never wrapped")
	}
	if traceOf(res).Recorded != traceOf(res).Retained+traceOf(res).Wrapped {
		t.Fatalf("accounting: recorded %d != retained %d + wrapped %d",
			traceOf(res).Recorded, traceOf(res).Retained, traceOf(res).Wrapped)
	}
	// A second phase starts from a fresh buffer with the same bounds.
	res2, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if traceOf(res2).Recorded != res2.Events {
		t.Fatalf("phase 2 trace incomplete: %d of %d", traceOf(res2).Recorded, res2.Events)
	}
	// Wrap mode may hold one ring (BufEvents) beyond MaxEvents per rank.
	if traceOf(res2).Wrapped == 0 {
		t.Fatal("phase 2 lost the tiny wrap-mode buffer: never wrapped")
	}
	for _, rs := range traceOf(res2).Ranks {
		if rs.Retained > 32+8 {
			t.Fatalf("phase 2 lost the retention bound: rank %d retained %d", rs.Rank, rs.Retained)
		}
	}
	if st := inst.Status(); st.DroppedInFlight != 0 || st.DroppedUnpatched != 0 {
		t.Fatalf("drops without any reconfigure: %d/%d", st.DroppedInFlight, st.DroppedUnpatched)
	}
}

// TestAdaptDemoteLadderEndToEnd exercises the default adapt behaviour
// through the public API: under a tight budget the controller first
// demotes hot low-duration functions to 1-in-N sampling (sleds stay
// patched, the stream thins), and functions that are already demoted and
// still blow the budget are deselected at later boundaries.
func TestAdaptDemoteLadderEndToEnd(t *testing.T) {
	s := newQuickSession(t)
	// A budget so tight that even the 1-in-64 thinned stream stays over
	// it: the ladder must demote first, then escalate to deselection.
	inst, err := s.Start(nil, capi.RunOptions{
		Ranks:    2,
		PatchAll: true,
		Adapt:    &capi.AdaptOptions{Budget: 0.000001},
	})
	if err != nil {
		t.Fatal(err)
	}
	var demotedSeen, droppedSeen bool
	var last *capi.RunResult
	for phase := 0; phase < 6 && !(demotedSeen && droppedSeen); phase++ {
		res, err := inst.Run()
		if err != nil {
			t.Fatal(err)
		}
		last = res
		for _, ep := range res.AdaptEpochs {
			if len(ep.Demoted) > 0 {
				demotedSeen = true
			}
			if len(ep.Dropped) > 0 {
				droppedSeen = true
			}
		}
	}
	if !demotedSeen {
		t.Fatal("controller never demoted under a tight budget")
	}
	if !droppedSeen {
		t.Fatal("ladder never escalated a demoted function to deselection")
	}
	// The demotions really thinned the stream, with exact conservation.
	if last.Sampling == nil {
		t.Fatal("run result carries no sampling snapshot")
	}
	c := last.Sampling.Counters
	if c.SampledEvents == 0 {
		t.Fatalf("no events sampled out: %+v", c)
	}
	if c.Delivered+c.SampledEvents+c.SuppressedPairs+c.CollapsedCalls != c.Enters {
		t.Fatalf("sampling counters do not reconcile: %+v", c)
	}
	if st := inst.Status(); st.Sampling == nil {
		t.Fatal("status carries no sampling view")
	}
}

// TestRunWithSamplingOptions covers the public sampling wiring: an initial
// table via RunOptions.Sampling, a live change via Instance.SetSampling,
// and exact end-of-phase accounting in the run result.
func TestRunWithSamplingOptions(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{
		Backends: []string{"talp"},
		Ranks:    2,
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Sampling == nil || res1.Sampling.Default == nil || res1.Sampling.Default.Stride != 4 {
		t.Fatalf("sampling snapshot = %+v", res1.Sampling)
	}
	c := res1.Sampling.Counters
	if c.SampledEvents == 0 || c.Delivered+c.SampledEvents+c.SuppressedPairs+c.CollapsedCalls != c.Enters {
		t.Fatalf("phase 1 counters = %+v", c)
	}
	// Delivered is not just the derived identity: at 1-in-4 it must sit in
	// the exact per-(function,rank) ceiling band — each stride counter
	// delivers ceil(enters/4) of its own stream.
	slots := int64(res1.ActiveFuncs * 2) // ranks = 2
	if c.Delivered < c.Enters/4 || c.Delivered > c.Enters/4+slots {
		t.Fatalf("delivered %d outside the 1-in-4 band [%d, %d] for %d enters",
			c.Delivered, c.Enters/4, c.Enters/4+slots, c.Enters)
	}
	// Delivered events reach the backend; sampled-out ones do not: the
	// engine dispatched more events than the phase total says? No — the
	// engine count is dispatch-level, so it must exceed what TALP saw.
	if talpOf(res1) == nil {
		t.Fatal("no TALP report under sampling")
	}
	// Live change: clear the table; the next phase delivers everything.
	if err := inst.SetSampling(capi.SamplingOptions{}); err != nil {
		t.Fatal(err)
	}
	res2, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Sampling == nil {
		t.Fatal("accounting lost after clearing the table")
	}
	c2 := res2.Sampling.Counters
	if c2.SampledEvents != c.SampledEvents {
		t.Fatalf("cleared table kept sampling: %+v then %+v", c, c2)
	}
	// Invalid configs mutate nothing.
	if err := inst.SetSampling(capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: -1}}); err == nil {
		t.Fatal("negative stride accepted")
	}
	if err := inst.SetSampling(capi.SamplingOptions{Funcs: map[string]capi.SamplingPolicy{"nope": {Stride: 2}}}); err == nil {
		t.Fatal("unknown function accepted")
	}
}
