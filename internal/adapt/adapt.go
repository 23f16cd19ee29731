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
// exits (an invocation without a completion never contributes to the mean).
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
	// SLOWindow is the per-endpoint latency window (requests) the p99 is
	// computed over. Default: 256.
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

// FuncStat is a snapshot of one function's observed behaviour.
type FuncStat struct {
	ID     int32
	Name   string
	Calls  int64 // entry events
	Events int64 // entry + exit events
	MeanNs int64 // mean inclusive duration of completed outermost invocations (0 = none completed)
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
	name        string
	calls       atomic.Int64 // all entry events, nested included
	completions atomic.Int64 // completed outermost invocations
	events      atomic.Int64
	durNs       atomic.Int64 // inclusive ns of completed outermost invocations
	epochEvents atomic.Int64
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

// rankState tracks open invocations per function on one rank. Each rank is
// driven by exactly one goroutine, so the state needs no locking.
type rankState struct {
	open map[int32]*openCall
}

type openCall struct {
	depth   int
	startNs int64
}

// Controller is the adaptive controller: a dyncapi.Backend that measures
// nothing and observes every event. Create it with New, put it last in the
// backend chain handed to dyncapi.New, then Attach the resulting runtime so
// the controller can reconfigure it.
type Controller struct {
	// opts is swapped atomically so Retune can adjust the budget/epoch while
	// handlers are evaluating boundaries on other ranks.
	opts atomic.Pointer[Options]

	rt atomic.Pointer[dyncapi.Runtime]

	stats     sync.Map // int32 -> *funcStat
	ranks     sync.Map // int -> *rankState
	endpoints sync.Map // string -> *endpointStat (SLO mode, see slo.go)
	events    atomic.Int64

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
}

// New creates a controller with the given tuning.
func New(opts Options) *Controller {
	opts.fill()
	c := &Controller{}
	c.opts.Store(&opts)
	return c
}

// Attach hands the controller the runtime it adapts and arms the first
// epoch boundary. Events observed before Attach are counted but never
// trigger a reconfiguration.
func (c *Controller) Attach(rt *dyncapi.Runtime) {
	c.rt.Store(rt)
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
	c.events.Store(0)
	c.stats.Range(func(_, v any) bool {
		v.(*funcStat).epochEvents.Store(0)
		return true
	})
	c.ranks.Range(func(k, v any) bool {
		if k.(int) < worldRanks {
			v.(*rankState).open = map[int32]*openCall{}
		}
		return true
	})
}

// Name implements dyncapi.Backend.
func (c *Controller) Name() string { return "adapt" }

// InitCost implements dyncapi.Backend: the controller initializes nothing.
func (c *Controller) InitCost(int) int64 { return 0 }

func (c *Controller) stat(fn *dyncapi.ResolvedFunc) *funcStat {
	if v, ok := c.stats.Load(fn.PackedID); ok {
		return v.(*funcStat)
	}
	v, _ := c.stats.LoadOrStore(fn.PackedID, &funcStat{name: fn.Name})
	return v.(*funcStat)
}

func (c *Controller) rank(id int) *rankState {
	if v, ok := c.ranks.Load(id); ok {
		return v.(*rankState)
	}
	v, _ := c.ranks.LoadOrStore(id, &rankState{open: map[int32]*openCall{}})
	return v.(*rankState)
}

// OnEnter implements dyncapi.Backend: count, open the invocation, check the
// epoch.
func (c *Controller) OnEnter(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	st := c.stat(fn)
	st.calls.Add(1)
	st.events.Add(1)
	st.epochEvents.Add(1)
	c.events.Add(1)
	rs := c.rank(tc.RankID())
	oc := rs.open[fn.PackedID]
	if oc == nil {
		oc = &openCall{}
		rs.open[fn.PackedID] = oc
	}
	if oc.depth == 0 {
		oc.startNs = tc.Clock().Now()
	}
	oc.depth++
	c.maybeEpoch(tc)
}

// OnExit implements dyncapi.Backend.
func (c *Controller) OnExit(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	st := c.stat(fn)
	st.events.Add(1)
	st.epochEvents.Add(1)
	c.events.Add(1)
	rs := c.rank(tc.RankID())
	if oc := rs.open[fn.PackedID]; oc != nil && oc.depth > 0 {
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
	rt := c.rt.Load()
	if rt == nil {
		return
	}
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
	c.runEpoch(rt, tc, now)
	c.lastNs.Store(now)
	c.nextEpoch.Store(now + c.opts.Load().Epoch)
}

// runEpoch is budget mode's decision: over budget, walk the hottest
// candidates down the ladder until the projected excess is covered; well
// under it, promote the most recent demotion.
func (c *Controller) runEpoch(rt *dyncapi.Runtime, tc xray.ThreadCtx, now int64) {
	opts := c.opts.Load()
	events := c.events.Swap(0)
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
	ranks := 0
	c.ranks.Range(func(_, _ any) bool { ranks++; return true })
	if ranks < 1 {
		ranks = 1
	}
	budget := int64(opts.Budget * float64(elapsed) * float64(ranks))
	ep := Epoch{AtNs: now, Rank: tc.RankID(), Events: events, OverheadNs: overhead, BudgetNs: budget}

	if overhead > budget {
		c.narrow(rt, c.candidates(rt.ActiveFuncs(), true), nil, &ep, overhead-budget)
		// A re-patch is real work: charge it to the rank that performed it.
		tc.Clock().Advance(ep.Report.VirtualNs)
	} else if overhead <= int64(promoteBelow*float64(budget)) {
		c.stepUp(rt, func(st step) bool { return !st.drop }, &ep)
	}

	// Reset the per-epoch counters for the next window.
	c.stats.Range(func(_, v any) bool {
		v.(*funcStat).epochEvents.Store(0)
		return true
	})
	c.appendEpoch(ep)
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
	owner *endpointStat
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
		v := victim{id: rf.PackedID, name: rf.Name}
		if s, ok := c.stats.Load(rf.PackedID); ok {
			st := s.(*funcStat)
			v.events, v.meanNs = st.events.Load(), st.meanNs()
			if epochHeat {
				v.events = st.epochEvents.Load()
			}
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
func (c *Controller) narrow(rt *dyncapi.Runtime, cands []victim, owner *endpointStat, ep *Epoch, excessNs int64) {
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
func (c *Controller) demote(rt *dyncapi.Runtime, v victim, owner *endpointStat, ep *Epoch) bool {
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
func (c *Controller) reselect(rt *dyncapi.Runtime, owner *endpointStat, drop map[int32]bool, add *victim, ep *Epoch) error {
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

// Stats returns per-function snapshots sorted by packed ID.
func (c *Controller) Stats() []FuncStat {
	var out []FuncStat
	c.stats.Range(func(k, v any) bool {
		st := v.(*funcStat)
		fs := FuncStat{ID: k.(int32), Name: st.name, Calls: st.calls.Load(), Events: st.events.Load()}
		if mean := st.meanNs(); mean > 0 {
			fs.MeanNs = mean
		}
		out = append(out, fs)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
