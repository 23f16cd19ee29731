package adapt

import (
	"testing"

	"capi/internal/compiler"
	"capi/internal/dyncapi"
	"capi/internal/exec"
	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/scorep"
	"capi/internal/trace"
	"capi/internal/vtime"
	"capi/internal/xray"
)

type fakeCtx struct {
	rank int
	clk  vtime.Clock
}

func (f *fakeCtx) RankID() int         { return f.rank }
func (f *fakeCtx) Clock() *vtime.Clock { return &f.clk }

// twoFuncSetup builds exe{main, hot, slow}, an XRay runtime and a DynCaPI
// runtime instrumenting hot+slow into inner, with a controller observing
// behind it, armed for a world of one rank.
func twoFuncSetup(t testing.TB, opts Options, inner dyncapi.Backend) (*compiler.Build, *obj.Process, *xray.Runtime, *dyncapi.Runtime, *Controller) {
	t.Helper()
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 30,
		Ops: []prog.Op{prog.Call("hot", 1), prog.Call("slow", 1)}})
	p.MustAddFunc(&prog.Function{Name: "hot", Unit: "app.exe", Statements: 35})
	p.MustAddFunc(&prog.Function{Name: "slow", Unit: "app.exe", Statements: 35})
	b, err := compiler.Compile(p, compiler.Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New(opts)
	rt, err := dyncapi.New(proc, xr, ic.New("app", "s", []string{"hot", "slow"}), dyncapi.NewMux(inner, ctrl), dyncapi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Attach(rt)
	ctrl.NewPhase(1)
	return b, proc, xr, rt, ctrl
}

// collective has the controller close its window at a collective that the
// given ranks reach: as mpi.World does, the ranks leave at the latest of
// their clocks plus the returned re-patch charge.
func collective(c *Controller, tcs ...*fakeCtx) {
	var at int64
	for _, tc := range tcs {
		at = max(at, tc.clk.Now())
	}
	leave := at + c.Collective(at)
	for _, tc := range tcs {
		tc.clk.AdvanceTo(leave)
	}
}

func packedOf(t *testing.T, b *compiler.Build, xr *xray.Runtime, proc *obj.Process, name string) int32 {
	t.Helper()
	lay := b.LayoutOf(name)
	if lay == nil || !lay.HasSleds {
		t.Fatalf("%s has no sleds", name)
	}
	unit := b.Prog.Func(name).Unit
	lo := proc.Object(unit)
	objID, ok := xr.ObjectID(lo)
	if !ok {
		t.Fatalf("object %s not registered", unit)
	}
	id, err := xray.PackID(objID, lay.FuncID)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestControllerUnderBudgetKeepsSelection(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{Epoch: vtime.Millisecond, Budget: 0.5}, &dyncapi.CygBackend{})
	tc := &fakeCtx{}
	hot := packedOf(t, b, xr, proc, "hot")
	// A handful of events, then a collective an epoch later: 25ns × 4 ≪
	// 500µs budget.
	for i := 0; i < 2; i++ {
		xr.Dispatch(tc, hot, xray.Entry)
		tc.clk.Advance(100)
		xr.Dispatch(tc, hot, xray.Exit)
	}
	tc.clk.Advance(vtime.Millisecond)
	collective(ctrl, tc)

	if ctrl.Reconfigs() != 0 || rt.Snapshot().Reconfigs != 0 {
		t.Fatalf("reconfigured although under budget: %d", ctrl.Reconfigs())
	}
	eps := ctrl.Epochs()
	if len(eps) != 1 {
		t.Fatalf("epochs = %d, want 1", len(eps))
	}
	if eps[0].Reconfigured || len(eps[0].Dropped) != 0 {
		t.Fatalf("epoch = %+v", eps[0])
	}
	if eps[0].Events != 4 { // the four warm-up events
		t.Fatalf("epoch events = %d, want 4", eps[0].Events)
	}
	if !rt.Active(hot) {
		t.Fatal("hot dropped under budget")
	}
}

func TestControllerDropsHottestLowDurationFirst(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{Epoch: vtime.Millisecond, Budget: 0.0001}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	demoteFirst(t, ctrl, rt, hot)
	tc := &fakeCtx{}
	// 210 hot invocations of 100ns each: hot and low-duration; at 1-in-64,
	// four of them reach the controller.
	for i := 0; i < 210; i++ {
		xr.Dispatch(tc, hot, xray.Entry)
		tc.clk.Advance(100)
		xr.Dispatch(tc, hot, xray.Exit)
	}
	// One slow invocation of 1ms, then a collective: 10 events = 250ns
	// overhead against a ≈102ns elapsed-scaled budget (0.01% of the
	// 1.021ms window).
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(vtime.Millisecond)
	xr.Dispatch(tc, slow, xray.Exit)
	collective(ctrl, tc)

	if ctrl.Reconfigs() != 1 {
		t.Fatalf("reconfigs = %d, want 1", ctrl.Reconfigs())
	}
	dropped := ctrl.Dropped()
	if len(dropped) != 1 || dropped[0] != "hot" {
		t.Fatalf("dropped = %v, want [hot] (hottest low-duration first)", dropped)
	}
	if rt.Active(hot) || xr.Patched(hot) {
		t.Fatal("hot still active/patched")
	}
	if !rt.Active(slow) || !xr.Patched(slow) {
		t.Fatal("slow (long-duration) must survive the narrowing")
	}
	eps := ctrl.Epochs()
	if len(eps) != 1 || !eps[0].Reconfigured {
		t.Fatalf("epochs = %+v", eps)
	}
	// Only the delta was touched: one function unpatched, none patched.
	rep := eps[0].Report
	if rep.Unpatched != 1 || rep.Patched != 0 || rep.Kept != 1 {
		t.Fatalf("reconfig report = %+v", rep)
	}
	if rep.Batch.BatchFuncs != 1 || rep.Batch.UnpatchedSleds != 2 || rep.Batch.PatchedSleds != 0 {
		t.Fatalf("batch stats = %+v (not delta-only)", rep.Batch)
	}
	// The re-patch cost was charged to the rank leaving the collective.
	if want := vtime.Millisecond + 210*100 + rep.VirtualNs; tc.clk.Now() != want {
		t.Fatalf("clock = %d, want %d (reconfig cost charged)", tc.clk.Now(), want)
	}
}

// TestControllerRespectsMaxReconfigs: hot alone fires in the first window
// and is demoted; slow joins in the second, which demotes it and drops hot;
// the third would drop slow, a second re-selection, unless MaxReconfigs is 1.
func TestControllerRespectsMaxReconfigs(t *testing.T) {
	for _, tt := range []struct{ limit, want int }{{1, 1}, {0, 2}} {
		b, proc, xr, _, ctrl := twoFuncSetup(t, Options{
			Epoch: vtime.Millisecond, Budget: 0.0001, MaxReconfigs: tt.limit,
		}, &dyncapi.CygBackend{})
		hot := packedOf(t, b, xr, proc, "hot")
		slow := packedOf(t, b, xr, proc, "slow")
		tc := &fakeCtx{}
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < 400; i++ {
				xr.Dispatch(tc, hot, xray.Entry)
				tc.clk.Advance(100)
				xr.Dispatch(tc, hot, xray.Exit)
				if epoch > 0 {
					xr.Dispatch(tc, slow, xray.Entry)
					tc.clk.Advance(100)
					xr.Dispatch(tc, slow, xray.Exit)
				}
			}
			tc.clk.Advance(vtime.Millisecond)
			collective(ctrl, tc)
		}
		if got := ctrl.Reconfigs(); got != tt.want {
			t.Fatalf("MaxReconfigs %d: reconfigs = %d, want %d", tt.limit, got, tt.want)
		}
	}
}

// TestAdaptiveNarrowingMidRun is the end-to-end acceptance test: a workload
// runs under the execution engine, the controller narrows the selection at
// a collective *mid-run*, and
//
//	(a) only the delta sleds are re-patched (batch stats),
//	(b) events stop arriving for the deselected function,
//	(c) the DynCaPI runtime is never torn down.
func TestAdaptiveNarrowingMidRun(t *testing.T) {
	p := prog.New("adaptapp", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)
	p.MustAddFunc(&prog.Function{Name: "MPI_Init", Unit: "libmpi.so"})
	p.MustAddFunc(&prog.Function{Name: "MPI_Allreduce", Unit: "libmpi.so"})
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 30, Ops: []prog.Op{
		prog.MPICall("MPI_Init", 0),
		prog.Call("step", 10),
	}})
	// Ten steps, each closed by an Allreduce, where the controller decides:
	// hot: 500 calls of 200ns a step — hot and low-duration, the
	// refinement loop's classic drop candidate. medium: one call of 1ms.
	p.MustAddFunc(&prog.Function{Name: "step", Unit: "app.exe", Statements: 35, Ops: []prog.Op{
		prog.Call("hot", 500),
		prog.Call("medium", 1),
		prog.MPICall("MPI_Allreduce", 8),
	}})
	p.MustAddFunc(&prog.Function{Name: "hot", Unit: "app.exe", Statements: 35,
		Ops: []prog.Op{prog.Work(200)}})
	p.MustAddFunc(&prog.Function{Name: "medium", Unit: "app.exe", Statements: 35,
		Ops: []prog.Op{prog.Work(vtime.Millisecond)}})
	b, err := compiler.Compile(p, compiler.Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New(Options{Epoch: 100 * vtime.Microsecond, Budget: 0.0001})
	rt, err := dyncapi.New(proc, xr, ic.New("adaptapp", "test", []string{"hot", "medium"}), ctrl, dyncapi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Attach(rt)
	hotID := packedOf(t, b, xr, proc, "hot")
	mediumID := packedOf(t, b, xr, proc, "medium")
	if !xr.Patched(hotID) || !xr.Patched(mediumID) {
		t.Fatal("initial selection not patched")
	}

	// Phase 1: the workload runs; the controller must narrow mid-run.
	world, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.NewPhase(world.Size())
	world.SetCollectiveHook(ctrl.Collective)
	eng, err := exec.New(exec.Config{Build: b, Proc: proc, XRay: xr, World: world})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if ctrl.Reconfigs() < 1 {
		t.Fatal("controller never reconfigured although over budget")
	}
	if rt.Snapshot().Reconfigs != ctrl.Reconfigs() {
		t.Fatalf("runtime saw %d reconfigs, controller %d", rt.Snapshot().Reconfigs, ctrl.Reconfigs())
	}
	if rt.Active(hotID) || xr.Patched(hotID) {
		t.Fatal("hot must be deselected and unpatched mid-run")
	}
	if !rt.Active(mediumID) || !xr.Patched(mediumID) {
		t.Fatal("medium must survive (long-duration)")
	}

	// (a) Only delta sleds were re-patched, under coalesced windows.
	var reconfigured *Epoch
	for i, ep := range ctrl.Epochs() {
		if ep.Reconfigured {
			reconfigured = &ctrl.Epochs()[i]
			break
		}
	}
	if reconfigured == nil {
		t.Fatal("no reconfigured epoch recorded")
	}
	rep := reconfigured.Report
	if int64(len(reconfigured.Dropped)) != rep.Batch.BatchFuncs {
		t.Fatalf("batch touched %d funcs, dropped %d — not delta-only",
			rep.Batch.BatchFuncs, len(reconfigured.Dropped))
	}
	if rep.Patched != 0 || rep.Unpatched != len(reconfigured.Dropped) {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Batch.PatchedSleds != 0 {
		t.Fatal("narrowing must not patch new sleds")
	}

	// (b) Post-reconfigure, events stop arriving for the deselected
	// function: a second execution phase produces no hot events at all.
	hotEventsAfterPhase1 := funcEvents(ctrl, hotID)
	mediumEventsAfterPhase1 := funcEvents(ctrl, mediumID)
	world2, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.NewPhase(world2.Size())
	world2.SetCollectiveHook(ctrl.Collective)
	eng2, err := exec.New(exec.Config{Build: b, Proc: proc, XRay: xr, World: world2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := funcEvents(ctrl, hotID); got != hotEventsAfterPhase1 {
		t.Fatalf("hot events grew %d → %d after deselection", hotEventsAfterPhase1, got)
	}
	if got := funcEvents(ctrl, mediumID); got <= mediumEventsAfterPhase1 {
		t.Fatalf("medium events did not grow (%d → %d) — instrumentation died entirely", mediumEventsAfterPhase1, got)
	}

	// (c) The runtime was never torn down: same instance, same resolution
	// table, init cost unchanged, and the second phase reused it.
	if rt.Report().Patched != 2 {
		t.Fatalf("init report mutated: %+v", rt.Report())
	}
	if rt.Report().InitVirtualNs <= 0 {
		t.Fatal("init accounting lost")
	}
}

// demoteFirst takes the functions one rung down the ladder, as an earlier
// over-budget epoch would have, so the next narrowing step deselects them.
func demoteFirst(t *testing.T, ctrl *Controller, rt *dyncapi.Runtime, ids ...int32) {
	t.Helper()
	for _, id := range ids {
		if !ctrl.demote(rt, victim{id: id, name: rt.Resolved(id).Name}, nil, &Epoch{}) {
			t.Fatalf("demoting %d failed", id)
		}
	}
}

// statOf returns the controller's accumulator for the packed ID.
func statOf(c *Controller, id int32) *funcStat { return c.stat(c.rt.Resolved(id)) }

func funcEvents(c *Controller, id int32) int64 { return statOf(c, id).events.Load() }

// TestControllerForwardsSymbolInjection is the regression for the adapt
// controller silently disabling Score-P's DSO symbol injection: DynCaPI must
// find the SymbolInjector beside the controller in the fan-out.
func TestControllerForwardsSymbolInjection(t *testing.T) {
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("lib.so", prog.SharedObject)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 30,
		Ops: []prog.Op{prog.Call("dso_fn", 1)}})
	p.MustAddFunc(&prog.Function{Name: "dso_fn", Unit: "lib.so", Statements: 40})
	b, err := compiler.Compile(p, compiler.Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := scorep.New(scorep.Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New(Options{})
	chain := dyncapi.NewMux(dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(proc)), ctrl)
	rt, err := dyncapi.New(proc, xr, ic.New("app", "s", []string{"dso_fn"}), chain, dyncapi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Attach(rt)
	if rt.Report().SymbolsInjected == 0 {
		t.Fatal("DSO symbols not injected beside the adapt controller")
	}
}

// TestRecursiveLongFunctionNotDroppedAsLowDuration is the regression for
// the mean-duration denominator: nested (recursive) entries must not
// dilute a long function's mean into the "low-duration" class.
func TestRecursiveLongFunctionNotDroppedAsLowDuration(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{Epoch: vtime.Millisecond, Budget: 0.005}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	demoteFirst(t, ctrl, rt, hot)
	tc := &fakeCtx{}
	// hot: 150 tiny invocations (clearly low-duration), three of them
	// delivered at 1-in-64.
	for i := 0; i < 150; i++ {
		xr.Dispatch(tc, hot, xray.Entry)
		tc.clk.Advance(100)
		xr.Dispatch(tc, hot, xray.Exit)
	}
	// slow: ONE outer invocation of 1.75ms that recurses into itself 350
	// times. A collective mid-recursion closes the window when slow has
	// more window events than hot — but its outer invocation is long (and
	// still open), so it must not be classified low-duration: hot is
	// dropped first, and slow only takes the demote rung.
	xr.Dispatch(tc, slow, xray.Entry)
	for j := 0; j < 350; j++ {
		if j == 200 { // 1.015ms in
			collective(ctrl, tc)
		}
		xr.Dispatch(tc, slow, xray.Entry)
		tc.clk.Advance(5 * vtime.Microsecond)
		xr.Dispatch(tc, slow, xray.Exit)
	}
	xr.Dispatch(tc, slow, xray.Exit)

	if ctrl.Reconfigs() != 1 {
		t.Fatalf("reconfigs = %d, want 1", ctrl.Reconfigs())
	}
	if dropped := ctrl.Dropped(); len(dropped) != 1 || dropped[0] != "hot" {
		t.Fatalf("dropped = %v, want [hot] — recursive slow misclassified as low-duration", dropped)
	}
	if !rt.Active(slow) || rt.Active(hot) {
		t.Fatal("wrong function dropped")
	}
	// The completed outer invocation dominates the reported mean.
	if mean := statOf(ctrl, slow).meanNs(); mean < vtime.Millisecond {
		t.Fatalf("slow mean = %dns, diluted by nested entries", mean)
	}
}

// TestCandidatesNeverFiredIsNotLowDuration: a function with no completed
// invocation has an unknown duration, so it must not sort into the
// low-duration class ahead of a function that measurably costs time —
// demoting it could not lower any tail.
func TestCandidatesNeverFiredIsNotLowDuration(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	tc := &fakeCtx{}
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(vtime.Millisecond)
	xr.Dispatch(tc, slow, xray.Exit)

	cands := ctrl.candidates([]*dyncapi.ResolvedFunc{rt.Resolved(hot), rt.Resolved(slow)}, false)
	if len(cands) != 2 || cands[0].id != slow {
		t.Fatalf("candidates = %+v, want slow first: never-fired hot classified low-duration", cands)
	}
	if cands[1].meanNs != -1 {
		t.Fatalf("never-fired hot mean = %dns, want -1 (unknown)", cands[1].meanNs)
	}
}

// TestControllerCountsAgreeWithTraceTotals pins the controller/tracer
// interop contract: the adaptive controller and the extrae backend observe
// the same event stream (siblings in one fan-out), so the controller's
// per-function totals must equal the trace buffer's recorded +
// policy-dropped accounting — even across a live narrowing that deselects a
// function mid-trace.
func TestControllerCountsAgreeWithTraceTotals(t *testing.T) {
	buf, err := trace.New(trace.Options{Ranks: 1, BufEvents: 32, MaxEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	b, proc, xr, rt, ctrl := twoFuncSetup(t,
		Options{Epoch: vtime.Millisecond, Budget: 0.000001, MinMeanNs: vtime.Second},
		dyncapi.NewExtraeBackend(buf))
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	tc := &fakeCtx{}
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 60; i++ {
			xr.Dispatch(tc, hot, xray.Entry)
			tc.clk.Advance(200)
			xr.Dispatch(tc, hot, xray.Exit)
			xr.Dispatch(tc, slow, xray.Entry)
			tc.clk.Advance(200)
			xr.Dispatch(tc, slow, xray.Exit)
		}
		tc.clk.Advance(vtime.Millisecond)
		collective(ctrl, tc)
	}
	// The first window demotes both functions, the second drops both in
	// one re-selection, and nothing is left to narrow after that.
	if n := ctrl.Reconfigs(); n != 1 {
		t.Fatalf("reconfigs = %d, want 1: the tight budget drops both functions at the second collective", n)
	}

	var ctrlEvents int64
	for i := range ctrl.stats {
		ctrlEvents += ctrl.stats[i].events.Load()
	}
	rep := buf.Report()
	if got := rep.Recorded + rep.Dropped; got != ctrlEvents {
		t.Fatalf("trace totals %d (recorded %d + dropped %d) != controller events %d",
			got, rep.Recorded, rep.Dropped, ctrlEvents)
	}
	// Runtime-level drops (post-deselection stragglers) are outside both
	// counts by design: controller and tracer sit behind the active check.
	if rt.Snapshot().DroppedInFlight == 0 {
		t.Fatal("narrowing produced no in-flight drops — test not exercising the window")
	}
}

func TestRetuneAdjustsOptionsLive(t *testing.T) {
	c := New(Options{Budget: 0.05, Epoch: 10 * vtime.Millisecond})
	got := c.Retune(Options{Budget: 0.2})
	if got.Budget != 0.2 {
		t.Fatalf("Budget = %v, want 0.2", got.Budget)
	}
	if got.Epoch != 10*vtime.Millisecond {
		t.Fatalf("Epoch changed unexpectedly: %v", got.Epoch)
	}
	// Zero fields keep their value; a shorter epoch applies from the next
	// collective on.
	got = c.Retune(Options{Epoch: vtime.Millisecond})
	if got.Epoch != vtime.Millisecond || got.Budget != 0.2 {
		t.Fatalf("after epoch retune: %+v", got)
	}
	c.Collective(vtime.Millisecond)
	if eps := c.Epochs(); len(eps) != 1 || eps[0].AtNs != vtime.Millisecond {
		t.Fatalf("epochs = %+v, want one evaluation at the 1ms collective", eps)
	}
	// MaxReconfigs: positive sets, negative lifts, zero keeps.
	if got = c.Retune(Options{MaxReconfigs: 3}); got.MaxReconfigs != 3 {
		t.Fatalf("MaxReconfigs = %d, want 3", got.MaxReconfigs)
	}
	if got = c.Retune(Options{}); got.MaxReconfigs != 3 {
		t.Fatalf("MaxReconfigs = %d, want kept 3", got.MaxReconfigs)
	}
	if got = c.Retune(Options{MaxReconfigs: -1}); got.MaxReconfigs != 0 {
		t.Fatalf("MaxReconfigs = %d, want lifted to 0", got.MaxReconfigs)
	}
	if c.Options().Budget != 0.2 {
		t.Fatalf("Options() = %+v", c.Options())
	}
}

// TestControllerDemotesBeforeDropping pins the demote ladder: an
// over-budget epoch first *demotes* the hottest low-duration function to
// 1-in-N sampling — the sled stays patched, no re-selection is applied —
// and only a function that is already demoted and still pushes the
// overhead over budget is deselected at a later boundary.
func TestControllerDemotesBeforeDropping(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t,
		Options{Epoch: vtime.Millisecond, Budget: 0.0001}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	tc := &fakeCtx{}
	overBudgetEpoch := func() {
		for i := 0; i < 210; i++ {
			xr.Dispatch(tc, hot, xray.Entry)
			tc.clk.Advance(100)
			xr.Dispatch(tc, hot, xray.Exit)
		}
		xr.Dispatch(tc, slow, xray.Entry)
		tc.clk.Advance(vtime.Millisecond)
		xr.Dispatch(tc, slow, xray.Exit)
		collective(ctrl, tc)
	}

	// Epoch 1: way over budget — the ladder demotes, it must not drop.
	overBudgetEpoch()
	eps := ctrl.Epochs()
	if len(eps) != 1 {
		t.Fatalf("epochs = %d, want 1", len(eps))
	}
	if len(eps[0].Demoted) == 0 || eps[0].Demoted[0] != "hot" {
		t.Fatalf("demoted = %v, want hot first (hottest low-duration)", eps[0].Demoted)
	}
	if eps[0].Reconfigured || len(eps[0].Dropped) != 0 || ctrl.Reconfigs() != 0 {
		t.Fatalf("first over-budget epoch deselected instead of demoting: %+v", eps[0])
	}
	if !rt.Active(hot) || !xr.Patched(hot) {
		t.Fatal("demoted function must stay selected and patched")
	}
	if got := ctrl.Demoted(); len(got) == 0 || got[0] != "hot" {
		t.Fatalf("ladder bookkeeping = %v", got)
	}
	if snap := rt.SamplingSnapshot(); snap.FuncPolicies == 0 {
		t.Fatalf("no sampling policy installed by the demotion: %+v", snap)
	}

	// Epoch 2: still over budget with hot already demoted — now it drops.
	overBudgetEpoch()
	if ctrl.Reconfigs() != 1 {
		t.Fatalf("reconfigs = %d, want 1 (drop after demote)", ctrl.Reconfigs())
	}
	dropped := ctrl.Dropped()
	if len(dropped) == 0 || dropped[0] != "hot" {
		t.Fatalf("dropped = %v, want hot", dropped)
	}
	if rt.Active(hot) || xr.Patched(hot) {
		t.Fatal("hot still active/patched after the ladder dropped it")
	}
	if !rt.Active(slow) {
		t.Fatal("slow deselected")
	}
	for _, name := range ctrl.Demoted() {
		if name == "hot" {
			t.Fatal("dropped function still on the ladder")
		}
	}
	// The demotion really thinned the stream: sampled-out enters recorded.
	rt.FlushSampling(rt.Ranks())
	if c := rt.SamplingSnapshot().Counters; c.SampledEvents == 0 ||
		c.Delivered+c.SampledEvents+c.SuppressedPairs+c.CollapsedCalls != c.Enters {
		t.Fatalf("sampling counters = %+v", c)
	}
}

// TestControllerPromotesWithHysteresis: once the overhead falls into the
// promoteBelow band (well under budget), the most recently demoted
// function is restored to full rate — the hysteresis that re-promotes when
// pressure subsides.
func TestControllerPromotesWithHysteresis(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t,
		Options{Epoch: vtime.Millisecond, Budget: 0.01},
		&dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	tc := &fakeCtx{}
	// Epoch 1: over budget — hot is demoted.
	for i := 0; i < 210; i++ {
		xr.Dispatch(tc, hot, xray.Entry)
		tc.clk.Advance(100)
		xr.Dispatch(tc, hot, xray.Exit)
	}
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(vtime.Millisecond)
	xr.Dispatch(tc, slow, xray.Exit)
	collective(ctrl, tc)
	if got := ctrl.Demoted(); len(got) != 1 || got[0] != "hot" {
		t.Fatalf("demoted = %v, want [hot]", got)
	}
	// Epoch 2: almost idle — overhead lands in the promotion band.
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(vtime.Millisecond + vtime.Millisecond/2)
	xr.Dispatch(tc, slow, xray.Exit)
	collective(ctrl, tc)
	eps := ctrl.Epochs()
	last := eps[len(eps)-1]
	if len(last.Promoted) != 1 || last.Promoted[0] != "hot" {
		t.Fatalf("promoted = %v (epoch %+v)", last.Promoted, last)
	}
	if got := ctrl.Demoted(); len(got) != 0 {
		t.Fatalf("ladder not emptied by promotion: %v", got)
	}
	if snap := rt.SamplingSnapshot(); snap.FuncPolicies != 0 {
		t.Fatalf("sampler policy survived the promotion: %+v", snap)
	}
	_ = b
	_ = proc
}

// TestResetLadderForgetsDemotions: when the sampling table is replaced
// wholesale (Instance.SetSampling), the controller's demotion bookkeeping
// is reset — the next narrowing step must demote again rather than treat
// the (no longer demoted) function as ladder-exhausted and deselect it
// outright. That holds for a budget-mode step, which nobody owns, and for
// a step an SLO endpoint owns.
func TestResetLadderForgetsDemotions(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"budget", Options{Epoch: vtime.Millisecond, Budget: 0.0001}},
		{"slo", Options{SLOTargetP99Ns: vtime.Millisecond, SLOWindow: sloEvalEvery, SLOMinSamples: sloEvalEvery}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			b, proc, xr, rt, ctrl := twoFuncSetup(t, mode.opts, &dyncapi.CygBackend{})
			hot := packedOf(t, b, xr, proc, "hot")
			slow := packedOf(t, b, xr, proc, "slow")
			tc := &fakeCtx{}
			// narrow takes one step down: an over-budget epoch, or one
			// evaluation of an endpoint (hot alone) missing its target.
			narrow := func() {
				for i := 0; i < 210; i++ {
					xr.Dispatch(tc, hot, xray.Entry)
					tc.clk.Advance(100)
					xr.Dispatch(tc, hot, xray.Exit)
				}
				xr.Dispatch(tc, slow, xray.Entry)
				tc.clk.Advance(vtime.Millisecond)
				xr.Dispatch(tc, slow, xray.Exit)
				collective(ctrl, tc)
			}
			ep := NewEndpoint("GET /hot")
			if mode.opts.SLOTargetP99Ns > 0 {
				ep.SetFuncIDs([]int32{hot})
				narrow = func() {
					for i := 0; i < sloEvalEvery; i++ {
						ep.Record(2 * vtime.Millisecond)
						ctrl.ObserveRequest(ep)
					}
				}
			}
			narrow()
			if got := ctrl.Demoted(); len(got) == 0 {
				t.Fatalf("precondition: nothing demoted (%v)", got)
			}
			ctrl.ResetLadder()
			if got := ctrl.Demoted(); len(got) != 0 {
				t.Fatalf("ladder not reset: %v", got)
			}
			if st := ctrl.SLOSnapshot([]*Endpoint{ep}); st != nil && st.Endpoints[0].Steps != 0 {
				t.Fatalf("endpoint still owns a step after the reset: %+v", st.Endpoints[0])
			}
			// The next step demotes afresh instead of deselecting.
			narrow()
			if ctrl.Reconfigs() != 0 {
				t.Fatalf("reset ladder escalated straight to deselection (%d reconfigs)", ctrl.Reconfigs())
			}
			eps := ctrl.Epochs()
			last := eps[len(eps)-1]
			if len(last.Demoted) == 0 || len(last.Dropped) != 0 {
				t.Fatalf("post-reset epoch = demoted %v dropped %v, want fresh demotion", last.Demoted, last.Dropped)
			}
			if !rt.Active(hot) {
				t.Fatal("hot deselected after ladder reset")
			}
		})
	}
}

// TestLadderSurvivesModeRoundTrip: a step is booked once, so the mode that
// undoes it need not be the mode that took it. SLO mode demotes hot, a
// retune to budget mode lets an idle epoch promote it, and after the
// retune back the endpoint must not still list the step — at every stage
// its row, Demoted() and the stride the runtime applies agree, and a
// widening evaluation finds nothing left to undo.
func TestLadderSurvivesModeRoundTrip(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{
		Epoch: vtime.Millisecond, Budget: 0.01,
		SLOTargetP99Ns: vtime.Millisecond, SLOWindow: sloEvalEvery, SLOMinSamples: sloEvalEvery,
	}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	slow := packedOf(t, b, xr, proc, "slow")
	ep := NewEndpoint("GET /hot")
	ep.SetFuncIDs([]int32{hot})
	evaluate := func(latencyNs int64) {
		for i := 0; i < sloEvalEvery; i++ {
			ep.Record(latencyNs)
			ctrl.ObserveRequest(ep)
		}
	}
	agree := func(stage string, demoted bool) {
		t.Helper()
		if got := rt.FuncStride(hot) > 1; got != demoted {
			t.Fatalf("%s: hot runs at stride %d, want demoted=%v", stage, rt.FuncStride(hot), demoted)
		}
		if got := ctrl.Demoted(); (len(got) == 1) != demoted {
			t.Fatalf("%s: Demoted() = %v, want demoted=%v", stage, got, demoted)
		}
		if st := ctrl.SLOSnapshot([]*Endpoint{ep}); st != nil {
			if row := st.Endpoints[0]; (row.Steps == 1) != demoted || (len(row.Demoted) == 1) != demoted {
				t.Fatalf("%s: endpoint row %+v, want demoted=%v", stage, row, demoted)
			}
		}
	}

	evaluate(2 * vtime.Millisecond) // misses the 1 ms target: one step down
	agree("after the SLO demotion", true)

	ctrl.Retune(Options{SLOTargetP99Ns: -1})
	agree("in budget mode", true)
	tc := &fakeCtx{}
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(vtime.Millisecond + vtime.Millisecond/2)
	xr.Dispatch(tc, slow, xray.Exit)
	collective(ctrl, tc) // an idle epoch: inside the promotion band
	if eps := ctrl.Epochs(); len(eps[len(eps)-1].Promoted) != 1 {
		t.Fatalf("idle budget epoch did not promote: %+v", eps[len(eps)-1])
	}
	agree("after the budget promotion", false)

	ctrl.Retune(Options{SLOTargetP99Ns: vtime.Millisecond})
	agree("back in SLO mode", false)
	before := len(ctrl.Epochs())
	evaluate(vtime.Millisecond / 10) // well under target: would widen
	if eps := ctrl.Epochs(); len(eps) != before {
		t.Fatalf("widening undid a step that was not in effect: %+v", eps[before:])
	}
	agree("after the widening evaluation", false)
}

// TestReaddedFunctionCompletesAfterMidCallDeselect: a deselect that lands
// while a rank is inside hot loses that invocation's exit. Once hot is
// re-added, its next invocation on the rank must complete and count, with
// no NewPhase in between — HTTP worker ranks never get one.
func TestReaddedFunctionCompletesAfterMidCallDeselect(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{Epoch: vtime.Second}, &dyncapi.CygBackend{})
	hot := packedOf(t, b, xr, proc, "hot")
	tc := &fakeCtx{rank: 1}
	xr.Dispatch(tc, hot, xray.Entry)
	if _, err := rt.Reconfigure(ic.New("app", "s", []string{"slow"})); err != nil {
		t.Fatal(err)
	}
	xr.Dispatch(tc, hot, xray.Exit) // lost: hot is deselected
	if _, err := rt.Reconfigure(ic.New("app", "s", []string{"hot", "slow"})); err != nil {
		t.Fatal(err)
	}
	xr.Dispatch(tc, hot, xray.Entry)
	tc.clk.Advance(2 * vtime.Millisecond)
	xr.Dispatch(tc, hot, xray.Exit)

	st := statOf(ctrl, hot)
	if n := st.completions.Load(); n != 1 {
		t.Fatalf("completions = %d, want 1: the re-added invocation never completed", n)
	}
	if mean := st.meanNs(); mean != 2*vtime.Millisecond {
		t.Fatalf("mean = %dns, want %dns", mean, 2*vtime.Millisecond)
	}
}

// TestControllerSurvivesSwap: the controller stays attached across
// SwapBackend, behind the new set, as Instance.SetBackends keeps it. A kept
// leaf is not deselected, so a call opened before the swap completes after
// it with its whole duration counted.
func TestControllerSurvivesSwap(t *testing.T) {
	b, proc, xr, rt, ctrl := twoFuncSetup(t, Options{Epoch: vtime.Second, Budget: 0.5}, &dyncapi.CygBackend{})
	slow := packedOf(t, b, xr, proc, "slow")
	tc := &fakeCtx{}
	xr.Dispatch(tc, slow, xray.Entry)
	tc.clk.Advance(300)
	if _, err := rt.SwapBackend(dyncapi.NewMux(&dyncapi.CygBackend{}, ctrl)); err != nil {
		t.Fatal(err)
	}
	tc.clk.Advance(200)
	xr.Dispatch(tc, slow, xray.Exit)

	st := statOf(ctrl, slow)
	if gen := st.gen.Load(); gen != 0 {
		t.Fatalf("controller deselected on a swap that kept it: gen %d", gen)
	}
	if c, d := st.completions.Load(), st.durNs.Load(); c != 1 || d != 500 {
		t.Fatalf("completions %d, duration %d ns; want 1 call of 500 ns", c, d)
	}
}
