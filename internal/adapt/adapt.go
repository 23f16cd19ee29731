// Package adapt implements the controller that makes the instrumentation
// genuinely *runtime-adaptable*: instead of the user refining the selection
// between runs (the paper's §VII-A workflow), the controller refines it
// *during* the run.
//
// The controller observes the event stream: it is a backend of its own,
// placed last in the runtime's fan-out after the measurement backends, and
// keeps per-function enter/exit counts and inclusive durations. Two policies
// decide when to act. In budget mode, at every epoch boundary of the
// virtual-time executor — the first event whose rank clock crosses the
// boundary triggers the evaluation — the epoch's instrumentation overhead
// (events × modelled per-event cost) is compared against the configured
// budget; in SLO mode (slo.go) each endpoint's request p99 is compared
// against a target. Both climb one ladder: a hot low-duration function is
// first demoted to 1-in-64 sampling, and only an already demoted one is
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
	// Epoch is the virtual-time length of one control epoch. The selection
	// is re-evaluated whenever an executing rank's clock crosses an epoch
	// boundary. Default: 10ms.
	Epoch int64
	// Budget is the tolerated instrumentation overhead per rank and epoch
	// as a fraction of the epoch length (0.01 = 1%); the controller scales
	// the allowance by the number of ranks it has observed, since the
	// event counts it watches aggregate all ranks. Default: 0.01.
	Budget float64
	// MinMeanNs classifies functions as "low-duration": a function whose
	// mean inclusive duration is below this threshold carries little
	// measurement value per event and is dropped first. Default: 10µs.
	MinMeanNs int64
	// MaxReconfigs bounds the number of live re-selections (0 = unlimited).
	MaxReconfigs int
	// SLOTargetP99Ns switches the controller to SLO mode (see slo.go):
	// instead of evaluating the overhead budget at epoch boundaries, the
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
	// Seq is the 1-based epoch number; AtNs and Rank identify the clock
	// value and rank that triggered the boundary.
	Seq  int
	AtNs int64
	Rank int
	// Events is the number of instrumentation events observed during the
	// epoch; OverheadNs is their modelled cost, BudgetNs the allowance.
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
	// SLO-mode decisions (Rank -1) additionally carry the endpoint whose
	// window triggered them, the measured p99 and the target; Readded
	// lists deselected functions restored by a widening step.
	Endpoint string
	P99Ns    int64
	TargetNs int64
	Readded  []string
}

// funcStat is the controller's per-function accumulator.
type funcStat struct {
	completions atomic.Int64 // completed outermost invocations
	events      atomic.Int64
	durNs       atomic.Int64 // inclusive ns of completed outermost invocations
	epochEvents atomic.Int64
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

// openCall is one (rank, function) entry of the open-invocation table.
// Each rank is driven by exactly one goroutine and writes only its own row,
// so the entries need no locking.
type openCall struct {
	depth   int
	startNs int64
	gen     int64 // funcStat.gen when the outermost frame opened
}

// Controller is the adaptive controller: a dyncapi.Backend that measures
// nothing and observes every event. Create it with New, put it last in the
// backend chain handed to dyncapi.New, then Attach the resulting runtime so
// the controller can reconfigure it.
type Controller struct {
	// opts is swapped atomically so Retune can adjust the budget/epoch while
	// handlers are evaluating boundaries on other ranks.
	opts atomic.Pointer[Options]

	// rt, stats, open and seen are set by Attach, before any event, and
	// never reassigned: stats is indexed by rt.Index, seen by rank ID and
	// open by rank ID × NumFuncs + rt.Index, one row per rank.
	rt    *dyncapi.Runtime
	stats []funcStat
	open  []openCall
	seen  []bool
	// observed counts the ranks that have entered a function; it scales
	// the budget, and outlives phases.
	observed atomic.Int64

	nextEpoch atomic.Int64
	lastNs    atomic.Int64 // clock value of the previous evaluation
	inEpoch   atomic.Bool

	mu sync.Mutex
	// epochs is the decision log, and the one record of what was dropped
	// and how many re-selections were applied.
	epochs []Epoch //capi:guardedby mu
	// ladder is the LIFO of steps in effect (most recent last): every
	// demotion and deselection of either mode. A step is booked here and
	// nowhere else.
	ladder []step //capi:guardedby mu
	// fired lists the stats indexes of the functions that have seen an
	// event, in first-event order: the only windows an epoch boundary
	// sums and resets, so a boundary costs what fired, not NumFuncs.
	fired []int //capi:guardedby mu
}

// New creates a controller with the given tuning.
func New(opts Options) *Controller {
	opts.fill()
	c := &Controller{}
	c.opts.Store(&opts)
	return c
}

// Attach hands the controller the runtime it adapts, sizes its per-function
// and per-rank tables from it and arms the first epoch boundary. Call it
// before any event reaches the controller.
func (c *Controller) Attach(rt *dyncapi.Runtime) {
	c.rt = rt
	c.stats = make([]funcStat, rt.NumFuncs())
	c.open = make([]openCall, rt.Ranks()*rt.NumFuncs())
	c.seen = make([]bool, rt.Ranks())
	c.nextEpoch.Store(c.opts.Load().Epoch)
}

// Options returns the currently effective tuning.
func (c *Controller) Options() Options { return *c.opts.Load() }

// Retune adjusts the controller's tuning while the workload executes — the
// control plane's POST /v1/adapt. Zero (or negative) fields keep their
// current value, except MaxReconfigs where a negative value lifts the bound
// (0 already means unlimited, so 0 must mean "keep"). When the epoch length
// changes, the armed boundary is re-based on the previous evaluation so the
// new cadence takes effect immediately rather than after one stale epoch.
// Safe to call concurrently with handler execution. Returns the effective
// options.
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
	if o.Epoch > 0 {
		c.nextEpoch.Store(c.lastNs.Load() + cur.Epoch)
	}
	return cur
}

// NewPhase re-arms the controller for an execution phase whose world of
// worldRanks ranks restarts its clocks at zero: the epoch boundary is reset,
// the event window cleared and the world ranks' open invocations forgotten.
// Ranks past the world (HTTP middleware workers) keep dispatching across
// phases, so their state stays theirs. Call it only between phases.
func (c *Controller) NewPhase(worldRanks int) {
	c.nextEpoch.Store(c.opts.Load().Epoch)
	c.lastNs.Store(0)
	c.resetEpochEvents()
	clear(c.open[:worldRanks*len(c.stats)])
}

// Name implements dyncapi.Backend.
func (c *Controller) Name() string { return "adapt" }

// InitCost implements dyncapi.Backend: the controller initializes nothing.
func (c *Controller) InitCost(int) int64 { return 0 }

func (c *Controller) stat(fn *dyncapi.ResolvedFunc) *funcStat {
	return &c.stats[c.rt.Index(fn)]
}

// count books one event of the function at index i and returns its
// accumulator and its open-call entry on rank r.
func (c *Controller) count(r, i int) (*funcStat, *openCall) {
	st := &c.stats[i]
	if st.events.Add(1) == 1 {
		c.fire(i)
	}
	st.epochEvents.Add(1)
	return st, &c.open[r*len(c.stats)+i]
}

// fire appends a function's first event to fired.
//
//capi:coldpath
func (c *Controller) fire(i int) {
	c.mu.Lock()
	c.fired = append(c.fired, i)
	c.mu.Unlock()
}

// OnEnter implements dyncapi.Backend: count, open the invocation, check the
// epoch.
//
//capi:hotpath
func (c *Controller) OnEnter(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	r := tc.RankID()
	st, oc := c.count(r, c.rt.Index(fn))
	if !c.seen[r] {
		c.seen[r] = true
		c.observed.Add(1)
	}
	if gen := st.gen.Load(); oc.depth == 0 || oc.gen != gen {
		oc.depth, oc.startNs, oc.gen = 0, tc.Clock().Now(), gen
	}
	oc.depth++
	c.maybeEpoch(tc)
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
	c.maybeEpoch(tc)
}

// maybeEpoch runs the controller when the executing rank's clock has
// crossed the armed epoch boundary. Exactly one rank wins the CAS and
// evaluates; the others keep executing — their handlers are safe against
// the concurrent Reconfigure by construction.
func (c *Controller) maybeEpoch(tc xray.ThreadCtx) {
	now := tc.Clock().Now()
	if now < c.nextEpoch.Load() {
		return
	}
	if !c.inEpoch.CompareAndSwap(false, true) {
		return
	}
	defer c.inEpoch.Store(false)
	if now < c.nextEpoch.Load() { // another rank just evaluated this boundary
		return
	}
	if c.opts.Load().SLOTargetP99Ns > 0 {
		// SLO mode: tail latency steers the ladder (ObserveRequest), not
		// the overhead budget. Keep re-arming the boundary so budget mode
		// resumes cleanly if the target is retuned away.
		c.lastNs.Store(now)
		c.nextEpoch.Store(now + c.opts.Load().Epoch)
		return
	}
	c.runEpoch(c.rt, tc, now)
	c.lastNs.Store(now)
	c.nextEpoch.Store(now + c.opts.Load().Epoch)
}

// runEpoch is budget mode's decision: over budget, walk the hottest
// candidates down the ladder until the projected excess is covered; well
// under it, promote the most recent demotion.
//
//capi:coldpath
func (c *Controller) runEpoch(rt *dyncapi.Runtime, tc xray.ThreadCtx, now int64) {
	opts := c.opts.Load()
	var events int64
	for _, i := range c.firedNow() {
		events += c.stats[i].epochEvents.Load()
	}
	overhead := events * xray.DispatchCostNs
	// The window since the previous evaluation may span several epochs
	// (collectives can advance a clock far past a boundary); the budget
	// covers the whole elapsed window, not a single epoch, so catch-up
	// bursts are not overestimated.
	elapsed := now - c.lastNs.Load()
	if elapsed < opts.Epoch {
		elapsed = opts.Epoch
	}
	// The event total aggregates every rank's handler calls, but elapsed is
	// one rank's clock window — scale the allowance by the number of ranks
	// observed so Budget stays a per-rank overhead fraction.
	ranks := max(c.observed.Load(), 1)
	budget := int64(opts.Budget * float64(elapsed) * float64(ranks))
	ep := Epoch{AtNs: now, Rank: tc.RankID(), Events: events, OverheadNs: overhead, BudgetNs: budget}

	if overhead > budget {
		c.narrow(rt, c.candidates(rt.ActiveFuncs(), true), nil, &ep, overhead-budget)
		// A re-patch is real work: charge it to the rank that performed it.
		tc.Clock().Advance(ep.Report.VirtualNs)
	} else if overhead <= int64(promoteBelow*float64(budget)) {
		c.stepUp(rt, func(st step) bool { return !st.drop }, &ep)
	}

	c.resetEpochEvents()
	c.appendEpoch(ep)
}

// resetEpochEvents starts the next epoch's event window.
func (c *Controller) resetEpochEvents() {
	for _, i := range c.firedNow() {
		c.stats[i].epochEvents.Store(0)
	}
}

// firedNow returns the functions that have fired so far. The list is only
// ever appended to, so the returned prefix stays valid.
func (c *Controller) firedNow() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// The ladder both policies climb. They differ in scope and heat signal
// (candidates) and in their stopping rule, not in what a step is.

// victim is one candidate for a ladder step.
type victim struct {
	id     int32
	name   string
	events int64 // the policy's heat signal: this epoch's events, or all-time
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
// heat signal: this epoch's events in budget mode (a function silent this
// epoch costs nothing and is left out), all-time events in SLO mode. The
// order is cheapest-information-first: the low-duration class before
// everything else, then by heat descending, ID ascending for determinism. A
// function with no completed invocation yet (mean -1) has an unknown
// duration and is conservatively treated as not low-duration.
func (c *Controller) candidates(scope []*dyncapi.ResolvedFunc, epochHeat bool) []victim {
	var cands []victim
	for _, rf := range scope {
		st := c.stat(rf)
		v := victim{id: rf.PackedID, name: rf.Name, events: st.events.Load(), meanNs: st.meanNs()}
		if epochHeat {
			v.events = st.epochEvents.Load()
		}
		if epochHeat && v.events == 0 {
			continue
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
