// Package adapt implements the controller that makes the instrumentation
// genuinely *runtime-adaptable*: instead of the user refining the selection
// between runs (the paper's §VII-A workflow), the controller refines it
// *during* the run.
//
// The controller observes the event stream: it is a backend of its own,
// placed last in the runtime's fan-out after the measurement backends, and
// keeps per-function enter/exit counts and inclusive durations; each rank
// also counts its epoch's events in a row only it writes. Two policies
// decide when to act. In budget mode, at the first MPI collective an epoch
// after the previous evaluation (Collective), the world ranks' rows are
// summed while every rank waits there and the window's instrumentation
// overhead (events × modelled per-event cost) is compared against the
// budget; in SLO mode (slo.go) each endpoint's request p99 is compared
// against a target. Both climb one ladder: a hot low-duration function is first
// demoted to 1-in-64 sampling, and only an already demoted one is
// deselected — the functions the paper's refinement loop removes by hand, à
// la Fig. 1 — through dyncapi.Runtime.Reconfigure, which re-patches only the
// delta sleds, under coalesced mprotect windows, and never tears the run
// down. When pressure subsides the ladder is climbed back up.
//
// This closes the loop related work points at: Mertz & Nunes
// (arXiv:2305.01039) adapt monitoring online to bound overhead, and Arafa
// et al. (arXiv:1703.02873) suppress redundant instrumentation mid-run.
//
// Like real XRay unpatching, dropping a function that some rank is
// currently executing loses that invocation's exit event (see
// dyncapi.Runtime.Reconfigure); backends implementing dyncapi.Deselector
// (Score-P, TALP) receive synthetic exits for those dangling enters under
// the reconfigure lock, so no region stays open across a controller
// decision. The controller's own duration estimator tolerates the lost
// exits (an invocation without a completion never contributes to the mean);
// it is a Deselector too, and marks the calls a deselection leaves open
// stale, so a re-added function's next invocation starts afresh.
package adapt

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"capi/internal/dyncapi"
	"capi/internal/ic"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// Options tunes the controller.
type Options struct {
	// Epoch is the shortest virtual-time window between two budget
	// evaluations: the selection is re-evaluated at the first MPI
	// collective at least Epoch after the previous evaluation (the phase
	// start, for the first). Default: 10ms.
	Epoch int64
	// Budget is the tolerated instrumentation overhead per rank as a
	// fraction of the evaluated window (0.01 = 1%); the allowance is scaled
	// by the world's size, since the window's event count sums all world
	// ranks. Default: 0.01.
	Budget float64
	// MinMeanNs classifies functions as "low-duration": a function whose
	// mean inclusive duration is below this threshold carries little
	// measurement value per event and is dropped first. Default: 10µs.
	MinMeanNs int64
	// MaxReconfigs bounds the number of live re-selections (0 = unlimited).
	MaxReconfigs int
	// SLOTargetP99Ns switches the controller to SLO mode (see slo.go):
	// instead of evaluating the overhead budget at collectives, the
	// ladder is walked per endpoint so each endpoint's measured request
	// p99 meets this target with maximum instrumentation coverage.
	// 0 keeps budget mode.
	SLOTargetP99Ns int64
	// SLOWindow is how many of an endpoint's newest recorded latencies (of
	// the EndpointWindow its record keeps) the p99 is computed over.
	// Default: 256.
	SLOWindow int
	// SLOMinSamples gates SLO evaluation until the window holds at least
	// this many requests. Default: 64.
	SLOMinSamples int
}

const (
	// demoteStride is the 1-in-N sampling rate of the ladder's demote rung.
	demoteStride = 64
	// promoteBelow is budget mode's re-promotion hysteresis band: an epoch
	// whose overhead lands at or below promoteBelow × budget promotes the
	// most recent demotion back to full rate — one per epoch, so promotion
	// cannot oscillate against demotion, which triggers only above the
	// full budget.
	promoteBelow = 0.25
)

func (o *Options) fill() {
	if o.Epoch <= 0 {
		o.Epoch = 10 * vtime.Millisecond
	}
	if o.Budget <= 0 {
		o.Budget = 0.01
	}
	if o.MinMeanNs <= 0 {
		o.MinMeanNs = 10 * vtime.Microsecond
	}
	if o.SLOWindow <= 0 {
		o.SLOWindow = DefaultSLOWindow
	}
	if o.SLOMinSamples <= 0 {
		o.SLOMinSamples = DefaultSLOMinSamples
	}
}

// Epoch records one control decision.
type Epoch struct {
	// Seq is the 1-based decision number. AtNs is the time of the
	// collective that closed a budget-mode window (the maximum of the
	// ranks' clocks there); SLO-mode decisions leave it 0.
	Seq  int
	AtNs int64
	// Events is the number of instrumentation events the world ranks
	// observed during the window; OverheadNs is their modelled cost,
	// BudgetNs the allowance.
	Events     int64
	OverheadNs int64
	BudgetNs   int64
	// Demoted lists the functions demoted to 1-in-N sampling at this
	// boundary, Promoted the ones restored to full rate, and Dropped the
	// ones a re-selection deselected (empty when the budget held or
	// demotion absorbed the excess). Reconfigured tells whether a live
	// re-selection was applied; Report is its delta summary.
	Demoted      []string
	Promoted     []string
	Dropped      []string
	Reconfigured bool
	Report       dyncapi.ReconfigReport
	// SLO-mode decisions additionally carry the endpoint whose window
	// triggered them, the measured p99 and the target; Readded
	// lists deselected functions restored by a widening step.
	Endpoint string
	P99Ns    int64
	TargetNs int64
	Readded  []string
}

// funcStat is the controller's per-function accumulator.
type funcStat struct {
	completions atomic.Int64 // completed outermost invocations
	events      atomic.Int64 // all-time events: SLO mode's heat signal
	durNs       atomic.Int64 // inclusive ns of completed outermost invocations
	gen         atomic.Int64 // deselections; a call opened before the last is stale
}

// meanNs returns the mean inclusive duration of completed outermost
// invocations, or -1 when none completed yet (duration unknown).
func (st *funcStat) meanNs() int64 {
	done := st.completions.Load()
	if done == 0 {
		return -1
	}
	return st.durNs.Load() / done
}

// openCall is one (rank, function) entry of the rank's row: its open
// invocation and its events in the budget window. Each rank is driven by
// exactly one goroutine and writes only its own row, so the entries need no
// locking; Collective reads them while every world rank waits.
type openCall struct {
	depth   int
	startNs int64
	gen     int64 // funcStat.gen when the outermost frame opened
	window  int64 // events in the current budget window
}

// Controller is the adaptive controller: a dyncapi.Backend that measures
// nothing and observes every event. Create it with New, put it last in the
// backend chain handed to dyncapi.New, then Attach the resulting runtime so
// the controller can reconfigure it; before each phase, call NewPhase and
// make Collective the world's collective hook.
type Controller struct {
	// opts is swapped atomically so Retune can adjust the budget/epoch while
	// the ranks run.
	opts atomic.Pointer[Options]

	// rt, funcs, stats, open and touched are set by Attach, before any
	// event, and never reassigned: funcs and stats are indexed by rt.Index,
	// open by rank ID × NumFuncs + rt.Index, and touched by rank ID; a
	// rank's touched list names each function with a window count once.
	rt      *dyncapi.Runtime
	funcs   []*dyncapi.ResolvedFunc
	stats   []funcStat
	open    []openCall
	touched [][]int32

	decide sync.Mutex // one decision at a time: Collective locks, ObserveRequest tries
	world  int        //capi:guardedby decide — ranks of the phase's MPI world
	evalNs int64      //capi:guardedby decide — collective time of the previous evaluation
	heat   []int64    //capi:guardedby decide — a window's per-function sums, zero between windows
	hot    []int32    //capi:guardedby decide — the functions with heat, capacity NumFuncs

	mu sync.Mutex
	// epochs is the decision log, and the one record of what was dropped
	// and how many re-selections were applied.
	epochs []Epoch //capi:guardedby mu
	// ladder is the LIFO of steps in effect (most recent last): every
	// demotion and deselection of either mode. A step is booked here and
	// nowhere else.
	ladder []step //capi:guardedby mu
}

// New creates a controller with the given tuning.
func New(opts Options) *Controller {
	opts.fill()
	c := &Controller{}
	c.opts.Store(&opts)
	return c
}

// Attach hands the controller the runtime it adapts and sizes its
// per-function and per-rank tables from it. Call it before any event
// reaches the controller.
func (c *Controller) Attach(rt *dyncapi.Runtime) {
	n := rt.NumFuncs()
	c.rt = rt
	c.funcs = rt.Funcs()
	c.stats = make([]funcStat, n)
	c.open = make([]openCall, rt.Ranks()*n)
	c.touched = make([][]int32, rt.Ranks())
	for r := range c.touched {
		c.touched[r] = make([]int32, 0, n)
	}
	c.decide.Lock()
	c.heat = make([]int64, n)
	c.hot = make([]int32, 0, n)
	c.decide.Unlock()
}

// Options returns the currently effective tuning.
func (c *Controller) Options() Options { return *c.opts.Load() }

// Retune adjusts the controller's tuning while the workload executes — the
// control plane's POST /v1/adapt. Zero (or negative) fields keep their
// current value, except MaxReconfigs where a negative value lifts the bound
// (0 already means unlimited, so 0 must mean "keep"). Safe to call
// concurrently with handler execution. Returns the effective options.
func (c *Controller) Retune(o Options) Options {
	// Serialize concurrent retunes: without the lock, two read-modify-write
	// cycles could each start from the same snapshot and the later Store
	// would erase the earlier caller's change. Handlers still read the
	// options lock-free through the atomic pointer.
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := *c.opts.Load()
	if o.Epoch > 0 {
		cur.Epoch = o.Epoch
	}
	if o.Budget > 0 {
		cur.Budget = o.Budget
	}
	if o.MinMeanNs > 0 {
		cur.MinMeanNs = o.MinMeanNs
	}
	if o.MaxReconfigs > 0 {
		cur.MaxReconfigs = o.MaxReconfigs
	} else if o.MaxReconfigs < 0 {
		cur.MaxReconfigs = 0
	}
	// SLOTargetP99Ns > 0 enters (or retargets) SLO mode; negative returns
	// to budget mode — 0 must mean "keep", mirroring the other fields.
	if o.SLOTargetP99Ns > 0 {
		cur.SLOTargetP99Ns = o.SLOTargetP99Ns
	} else if o.SLOTargetP99Ns < 0 {
		cur.SLOTargetP99Ns = 0
	}
	if o.SLOWindow > 0 {
		cur.SLOWindow = o.SLOWindow
	}
	if o.SLOMinSamples > 0 {
		cur.SLOMinSamples = o.SLOMinSamples
	}
	c.opts.Store(&cur)
	return cur
}

// NewPhase arms the controller for a phase whose world of worldRanks ranks
// starts its clocks at zero, and clears those ranks' rows. Ranks past the
// world (HTTP middleware workers) keep dispatching across phases and
// budget mode never reads their rows. Call it only between phases.
func (c *Controller) NewPhase(worldRanks int) {
	c.decide.Lock()
	defer c.decide.Unlock()
	c.world, c.evalNs = worldRanks, 0
	clear(c.open[:worldRanks*len(c.stats)])
	for r := range c.touched[:worldRanks] {
		c.touched[r] = c.touched[r][:0]
	}
}

// Name implements dyncapi.Backend.
func (c *Controller) Name() string { return "adapt" }

// InitCost implements dyncapi.Backend: the controller initializes nothing.
func (c *Controller) InitCost(int) int64 { return 0 }

func (c *Controller) stat(fn *dyncapi.ResolvedFunc) *funcStat {
	return &c.stats[c.rt.Index(fn)]
}

// count books one event of the function at index i on rank r, in the
// all-time count and in the rank's window, and returns the function's
// accumulator and its entry in the rank's row.
func (c *Controller) count(r, i int) (*funcStat, *openCall) {
	st := &c.stats[i]
	st.events.Add(1)
	oc := &c.open[r*len(c.stats)+i]
	if oc.window == 0 {
		t := c.touched[r]
		t = t[:len(t)+1]
		t[len(t)-1] = int32(i)
		c.touched[r] = t
	}
	oc.window++
	return st, oc
}

// OnEnter implements dyncapi.Backend: count and open the invocation.
//
//capi:hotpath
func (c *Controller) OnEnter(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	st, oc := c.count(tc.RankID(), c.rt.Index(fn))
	if gen := st.gen.Load(); oc.depth == 0 || oc.gen != gen {
		oc.depth, oc.startNs, oc.gen = 0, tc.Clock().Now(), gen
	}
	oc.depth++
}

// OnDeselect implements dyncapi.Deselector: a rank inside fn at its
// deselection never fires fn's exit, so the new generation marks that open
// call stale for the rank's next enter. It closes nothing.
func (c *Controller) OnDeselect(fn *dyncapi.ResolvedFunc) int {
	c.stat(fn).gen.Add(1)
	return 0
}

// OnExit implements dyncapi.Backend.
//
//capi:hotpath
func (c *Controller) OnExit(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	if st, oc := c.count(tc.RankID(), c.rt.Index(fn)); oc.depth > 0 {
		oc.depth--
		if oc.depth == 0 {
			st.durNs.Add(tc.Clock().Now() - oc.startNs)
			st.completions.Add(1)
		}
	}
}

// Collective is the world's collective hook (mpi.World.SetCollectiveHook):
// at the first collective an epoch after the previous evaluation, budget
// mode drains the world ranks' windows and, over budget, walks the hottest
// candidates down the ladder until the projected excess is covered; well
// under it, it promotes the most recent demotion. Every rank pays the
// returned re-patch charge, as each process of an MPI job patches its text.
//
//capi:coldpath
func (c *Controller) Collective(atNs int64) (chargeNs int64) {
	c.decide.Lock()
	defer c.decide.Unlock()
	opts := c.opts.Load()
	// The budget covers the whole window, however many epochs it spans. SLO
	// mode leaves the rows to the async pipeline that may be filling them.
	elapsed := atNs - c.evalNs
	if elapsed < opts.Epoch || opts.SLOTargetP99Ns > 0 {
		return 0
	}
	c.evalNs = atNs
	events := c.sumWindows()
	defer func() {
		for _, i := range c.hot {
			c.heat[i] = 0
		}
		c.hot = c.hot[:0]
	}()
	overhead := events * xray.DispatchCostNs
	budget := int64(opts.Budget * float64(elapsed) * float64(c.world))
	ep := Epoch{AtNs: atNs, Events: events, OverheadNs: overhead, BudgetNs: budget}
	if overhead > budget {
		var scope []*dyncapi.ResolvedFunc
		for _, i := range c.hot {
			if rf := c.funcs[i]; c.rt.Active(rf.PackedID) {
				scope = append(scope, rf)
			}
		}
		c.narrow(c.rt, c.candidates(scope, true), nil, &ep, overhead-budget)
	} else if overhead <= int64(promoteBelow*float64(budget)) {
		c.stepUp(c.rt, func(st step) bool { return !st.drop }, &ep)
	}
	c.appendEpoch(ep)
	return ep.Report.VirtualNs
}

// sumWindows moves the world ranks' window counts into heat (listed in hot),
// walking only their touched lists, and returns the total.
//
//capi:locked decide
func (c *Controller) sumWindows() (events int64) {
	n := len(c.stats)
	for r := range c.world {
		for _, i := range c.touched[r] {
			oc := &c.open[r*n+int(i)]
			if c.heat[i] == 0 {
				c.hot = append(c.hot, i)
			}
			c.heat[i] += oc.window
			events += oc.window
			oc.window = 0
		}
		c.touched[r] = c.touched[r][:0]
	}
	return events
}

// The ladder both policies climb. They differ in scope and heat signal
// (candidates) and in their stopping rule, not in what a step is.

// victim is one candidate for a ladder step.
type victim struct {
	id     int32
	name   string
	events int64 // the policy's heat signal: the window's events, or all-time
	meanNs int64
}

// step is one ladder step in effect: the victim demoted to 1-in-N or, with
// drop, deselected. owner is the SLO endpoint whose evaluation took the step
// and may undo it; budget-mode steps have none.
type step struct {
	victim
	drop  bool
	owner *Endpoint
}

// candidates orders scope's functions for a ladder walk by the policy's
// heat signal: the window's events over the world ranks in budget mode
// (windowHeat), all-time events in SLO mode. The order is
// cheapest-information-first: the low-duration class before everything
// else, then by heat descending, ID ascending for determinism. A function
// with no completed invocation yet (mean -1) has an unknown duration and is
// conservatively treated as not low-duration.
//
//capi:locked decide
func (c *Controller) candidates(scope []*dyncapi.ResolvedFunc, windowHeat bool) []victim {
	cands := make([]victim, 0, len(scope))
	for _, rf := range scope {
		i := c.rt.Index(rf)
		v := victim{id: rf.PackedID, name: rf.Name, events: c.stats[i].events.Load(), meanNs: c.stats[i].meanNs()}
		if windowHeat {
			v.events = c.heat[i]
		}
		cands = append(cands, v)
	}
	minMean := c.opts.Load().MinMeanNs
	lowDur := func(mean int64) bool { return mean >= 0 && mean < minMean }
	sort.Slice(cands, func(i, j int) bool {
		li, lj := lowDur(cands[i].meanNs), lowDur(cands[j].meanNs)
		if li != lj {
			return li
		}
		if cands[i].events != cands[j].events {
			return cands[i].events > cands[j].events
		}
		return cands[i].id < cands[j].id
	})
	return cands
}

// narrow takes cands down the ladder in order, one rung each, until their
// projected saving covers excessNs: a candidate at full rate is demoted to
// 1-in-demoteStride sampling — its hook stays patched, no re-patch is paid,
// and it is still measured at the reduced rate — and one already demoted is
// deselected. The walk's deselections are applied as one re-selection
// (delta sleds only) and booked on the ladder for owner. Once MaxReconfigs
// is reached the walk only demotes.
func (c *Controller) narrow(rt *dyncapi.Runtime, cands []victim, owner *Endpoint, ep *Epoch, excessNs int64) {
	opts := c.opts.Load()
	allowDrop := !c.limited(opts)
	var saved int64
	var drops []victim
	for _, v := range cands {
		if saved >= excessNs {
			break
		}
		if !c.isDemoted(v.id) {
			if c.demote(rt, v, owner, ep) {
				saved += v.events * xray.DispatchCostNs * (demoteStride - 1) / demoteStride
			}
		} else if allowDrop {
			drops = append(drops, v)
			saved += v.events * xray.DispatchCostNs
		}
	}
	if len(drops) == 0 {
		return
	}
	gone := make(map[int32]bool, len(drops))
	for _, v := range drops {
		gone[v.id] = true
	}
	if c.reselect(rt, owner, gone, nil, ep) != nil {
		return
	}
	// A deselected function's demotion gives way to its deselection, and
	// its sampler policy is cleared, so a re-add or a manual re-selection
	// measures it at full rate again.
	c.mu.Lock()
	c.ladder = slices.DeleteFunc(c.ladder, func(st step) bool { return !st.drop && gone[st.id] })
	for _, v := range drops {
		c.ladder = append(c.ladder, step{victim: v, drop: true, owner: owner})
	}
	c.mu.Unlock()
	for _, v := range drops {
		ep.Dropped = append(ep.Dropped, displayName(v.name, v.id))
		rt.SetFuncSampling(v.id, nil) //nolint:errcheck // best-effort cleanup
	}
}

// stepUp undoes the most recent ladder step match accepts: a demotion is
// promoted back to full rate, a deselection re-added by a re-selection. A
// re-add that MaxReconfigs forbids or that fails goes back on the ladder,
// so a lifted bound can still undo it later. It reports whether a step was
// undone.
func (c *Controller) stepUp(rt *dyncapi.Runtime, match func(step) bool, ep *Epoch) bool {
	st, ok := c.popStep(match)
	if !ok {
		return false
	}
	if !st.drop {
		if rt.SetFuncSampling(st.id, nil) != nil {
			return false
		}
		ep.Promoted = append(ep.Promoted, displayName(st.name, st.id))
		return true
	}
	// Skipping the function in the active set first makes the re-selection
	// a no-op re-add should it be back already.
	if c.limited(c.opts.Load()) || c.reselect(rt, st.owner, map[int32]bool{st.id: true}, &st.victim, ep) != nil {
		c.mu.Lock()
		c.ladder = append(c.ladder, st)
		c.mu.Unlock()
		return false
	}
	ep.Readded = append(ep.Readded, displayName(st.name, st.id))
	return true
}

// isDemoted reports whether the function sits on the demote rung.
func (c *Controller) isDemoted(id int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.ContainsFunc(c.ladder, func(st step) bool { return !st.drop && st.id == id })
}

// demote puts v on the ladder at 1-in-demoteStride for owner and records
// the step in ep; false when the sampler refused the policy.
func (c *Controller) demote(rt *dyncapi.Runtime, v victim, owner *Endpoint, ep *Epoch) bool {
	if err := rt.SetFuncSampling(v.id, &dyncapi.SamplePolicy{Stride: demoteStride}); err != nil {
		return false
	}
	c.mu.Lock()
	c.ladder = append(c.ladder, step{victim: v, owner: owner})
	c.mu.Unlock()
	ep.Demoted = append(ep.Demoted, displayName(v.name, v.id))
	return true
}

// popStep takes the most recent step that match accepts off the ladder.
func (c *Controller) popStep(match func(step) bool) (step, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.ladder) - 1; i >= 0; i-- {
		if st := c.ladder[i]; match(st) {
			c.ladder = slices.Delete(c.ladder, i, i+1)
			return st, true
		}
	}
	return step{}, false
}

// limited reports whether MaxReconfigs forbids another re-selection.
func (c *Controller) limited(opts *Options) bool {
	return opts.MaxReconfigs > 0 && c.Reconfigs() >= opts.MaxReconfigs
}

// reselect re-patches to the active set minus drop, plus add when it names
// a function, as an IC stamped with the deciding policy (an endpoint's
// steps are SLO mode's); a re-selection that went through is reported in
// ep.
func (c *Controller) reselect(rt *dyncapi.Runtime, owner *Endpoint, drop map[int32]bool, add *victim, ep *Epoch) error {
	var names []string
	var ids []int32
	include := func(id int32, name string) {
		if name != "" {
			names = append(names, name)
		}
		ids = append(ids, id)
	}
	for _, rf := range rt.ActiveFuncs() {
		if !drop[rf.PackedID] {
			include(rf.PackedID, rf.Name)
		}
	}
	if add != nil {
		include(add.id, add.name)
	}
	policy := "adapt"
	if owner != nil {
		policy = "slo"
	}
	app, spec := "", policy
	if cfg := rt.Config(); cfg != nil {
		app = cfg.App
		if cfg.Spec != "" {
			spec = cfg.Spec + "+" + policy
		}
	}
	rep, err := rt.Reconfigure(ic.New(app, spec, names).WithIncludeIDs(ids))
	if err != nil {
		return err
	}
	ep.Reconfigured, ep.Report = true, rep
	return nil
}

// ResetLadder forgets the controller's demotion bookkeeping. Called when
// the sampling table is replaced wholesale (Instance.SetSampling): the
// replacement wiped the demotion policies from the runtime, so keeping the
// demoted set would make the next over-budget epoch skip the gentler
// demote rung and deselect outright — and a later promotion would clobber
// whatever policy the new table gave the function.
func (c *Controller) ResetLadder() {
	// Deselections stay: the sampling table replacement did not touch the
	// selection, so those steps are still in effect and must stay undoable.
	c.mu.Lock()
	c.ladder = slices.DeleteFunc(c.ladder, func(st step) bool { return !st.drop })
	c.mu.Unlock()
}

// Demoted returns the functions currently demoted to 1-in-N sampling, in
// demotion order.
func (c *Controller) Demoted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := []string{}
	for _, st := range c.ladder {
		if !st.drop {
			out = append(out, displayName(st.name, st.id))
		}
	}
	return out
}

func displayName(name string, id int32) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("id:%d", id)
}

func (c *Controller) appendEpoch(ep Epoch) {
	c.mu.Lock()
	ep.Seq = len(c.epochs) + 1
	c.epochs = append(c.epochs, ep)
	c.mu.Unlock()
}

// Epochs returns the recorded control decisions.
func (c *Controller) Epochs() []Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Epoch(nil), c.epochs...)
}

// Reconfigs returns how many live re-selections the controller applied.
func (c *Controller) Reconfigs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ep := range c.epochs {
		if ep.Reconfigured {
			n++
		}
	}
	return n
}

// Dropped returns every function the controller has deselected, in drop
// order.
func (c *Controller) Dropped() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, ep := range c.epochs {
		out = append(out, ep.Dropped...)
	}
	return out
}
