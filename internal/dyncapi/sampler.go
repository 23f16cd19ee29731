// Sampling and redundancy suppression in the dispatch hot path: the stage
// between the XRay handler and the measurement-backend chain that gives the
// adapt controller — and remote operators — a *gentler* knob than full
// deselection. Instead of unpatching a function (losing it entirely), the
// hook stays installed and the sampler thins the event stream:
//
//   - 1-in-N stride sampling: deliver the first of every Stride enters per
//     rank, drop the rest (Mertz & Nunes, "Software Runtime Monitoring with
//     Adaptive Sampling Rate", arXiv:2305.01039);
//   - min-duration suppression: drop enter/exit pairs of functions whose
//     previous completed invocation was shorter than a threshold, with
//     exact drop accounting (the measured duration of every suppressed
//     pair accumulates in SuppressedNs even though the pair was never
//     delivered);
//   - redundancy suppression: collapse repeated identical short calls —
//     same function, back-to-back within a gap — into a count + aggregate
//     (Arafa et al., "Redundancy Suppression in Time-Aware Dynamic Binary
//     Instrumentation", arXiv:1703.02873).
//
// Policies are configured per function ID and published atomically: the
// handler reads one per-function pointer (in the slot the lookup already
// produced, beside its state word) and plain-loads the policy fields, so
// Reconfigure / SetSampling / the adapt controller can change rates on a
// live run without ever locking the hot path.
//
// Pairing is exact across live rate changes: the deliver/suppress decision
// is made once at enter time and recorded in a per-rank decision stack; the
// matching exit follows the recorded decision regardless of what the policy
// says by then. A pair is therefore always delivered whole or dropped
// whole, and the conservation invariant
//
//	enters == delivered + sampled-out + suppressed + collapsed
//
// holds exactly, which the -race stress tests assert against an
// independently counting backend.
//
// Counter visibility: the per-rank counters are single-writer plain fields
// (the rank's goroutine) mirrored into atomics every publication window
// (64 enters). Mid-phase scrapes read the mirrors and may lag by up to one
// window; FlushSampling publishes the exact values and must only run while
// no events are dispatching (Instance.Run flushes after the engine joins
// its rank goroutines).
package dyncapi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"capi/internal/xray"
)

// DefaultRedundantGapNs is the redundancy-suppression gap used when a
// policy enables CollapseRedundant without choosing one: two calls of the
// same function starting within this window (virtual ns) count as repeats.
const DefaultRedundantGapNs = 1000

// samplePublishWindow is the enter count between publications of a slot's
// plain counters into their atomic mirrors (a power of two).
const samplePublishWindow = 64

// SamplePolicy is one function's sampling/suppression policy. The zero
// value delivers everything (but keeps the pairing state alive, so a policy
// can be cleared mid-pair without unbalancing the backends).
type SamplePolicy struct {
	// Stride delivers the first of every Stride enters per rank and drops
	// the rest (1-in-N sampling). Values <= 1 deliver every enter.
	Stride int `json:"stride,omitempty"`
	// MinDurationNs suppresses enter/exit pairs predicted shorter than
	// this threshold (virtual ns). The prediction is the function's most
	// recent completed duration on the executing rank; the first pair (no
	// history) is always delivered, and the measured duration of every
	// suppressed pair is accounted exactly in SuppressedNs.
	MinDurationNs int64 `json:"minDurationNs,omitempty"`
	// CollapseRedundant collapses repeated identical short calls — the
	// same function called again within RedundantGapNs of its previous
	// exit, with a short previous duration — into a count + aggregate
	// (CollapsedCalls / CollapsedNs). The first call of a streak is
	// delivered.
	CollapseRedundant bool `json:"collapseRedundant,omitempty"`
	// RedundantGapNs is the maximum virtual-time gap between the previous
	// exit and the next enter for the call to count as a repeat. 0 uses
	// DefaultRedundantGapNs.
	RedundantGapNs int64 `json:"redundantGapNs,omitempty"`
}

// PolicyError is a validation failure of a sampling config (or of the adapt
// controller's tuning), carrying the JSON field that caused it so the control
// plane can name the offending field in its 400 body (errors.As-able through
// any wrapping).
type PolicyError struct {
	// Field is the offending field's JSON name: "stride", "minDurationNs",
	// "redundantGapNs", "funcs", "ids" or "sloWindow".
	Field string
	Msg   string
}

func (e *PolicyError) Error() string { return e.Msg }

// validate rejects nonsensical policies.
func (p SamplePolicy) validate() error {
	if p.Stride < 0 {
		return &PolicyError{Field: "stride", Msg: fmt.Sprintf("dyncapi: sampling stride %d must be >= 0", p.Stride)}
	}
	if p.MinDurationNs < 0 {
		return &PolicyError{Field: "minDurationNs", Msg: fmt.Sprintf("dyncapi: sampling min duration %dns must be >= 0", p.MinDurationNs)}
	}
	if p.RedundantGapNs < 0 {
		return &PolicyError{Field: "redundantGapNs", Msg: fmt.Sprintf("dyncapi: redundancy gap %dns must be >= 0", p.RedundantGapNs)}
	}
	if p.RedundantGapNs > 0 && !p.CollapseRedundant {
		return &PolicyError{Field: "redundantGapNs", Msg: "dyncapi: redundancy gap set without CollapseRedundant"}
	}
	return nil
}

// isZero reports whether the policy delivers everything.
func (p SamplePolicy) isZero() bool {
	return p.Stride <= 1 && p.MinDurationNs <= 0 && !p.CollapseRedundant
}

// SamplingConfig is a whole-table sampling configuration: an optional
// default policy applied to every resolvable function plus per-function
// overrides by name or packed ID. Applying a config replaces the previous
// table atomically per function; an empty config clears all policies.
type SamplingConfig struct {
	// Default applies to every function the runtime resolved (and every
	// function selected later — the table covers the full resolution set,
	// not just the active selection).
	Default *SamplePolicy `json:"default,omitempty"`
	// Funcs overrides the default per function name. A name matching
	// several functions (same symbol in several objects) applies to all of
	// them. Unknown names are rejected before anything is applied.
	Funcs map[string]SamplePolicy `json:"funcs,omitempty"`
	// IDs overrides per packed XRay ID (reaches functions whose names
	// never resolved). Unknown IDs are rejected before anything is applied.
	IDs map[int32]SamplePolicy `json:"ids,omitempty"`
}

// SamplingCounters is the sampler's conservation accounting, summed over
// every function and rank. Enters == Delivered + SampledEvents +
// SuppressedPairs + CollapsedCalls, exactly, once the counters are flushed
// (each dropped enter stands for a whole dropped enter/exit pair).
type SamplingCounters struct {
	// Enters counts every enter that reached the sampler.
	Enters int64 `json:"enters"`
	// Delivered counts the enters passed through to the backend chain.
	Delivered int64 `json:"delivered"`
	// SampledEvents counts the enters dropped by 1-in-N stride sampling.
	SampledEvents int64 `json:"sampledEvents"`
	// SuppressedPairs counts the pairs dropped by min-duration
	// suppression; SuppressedNs is their exactly measured total duration.
	SuppressedPairs int64 `json:"suppressedPairs"`
	SuppressedNs    int64 `json:"suppressedNs"`
	// CollapsedCalls counts the repeated identical short calls collapsed
	// by the redundancy suppressor; CollapsedNs aggregates their duration.
	CollapsedCalls int64 `json:"collapsedCalls"`
	CollapsedNs    int64 `json:"collapsedNs"`
}

// add accumulates o into c.
func (c *SamplingCounters) add(o SamplingCounters) {
	c.Enters += o.Enters
	c.Delivered += o.Delivered
	c.SampledEvents += o.SampledEvents
	c.SuppressedPairs += o.SuppressedPairs
	c.SuppressedNs += o.SuppressedNs
	c.CollapsedCalls += o.CollapsedCalls
	c.CollapsedNs += o.CollapsedNs
}

// SamplingSnapshot is the point-in-time sampling view served on /v1/status
// and carried in the report envelope.
type SamplingSnapshot struct {
	// Configured tells whether any sampling policy is installed.
	Configured bool `json:"configured"`
	// Default echoes the table's default policy (nil when none).
	Default *SamplePolicy `json:"default,omitempty"`
	// FuncPolicies counts the per-function overrides currently installed
	// (including adapt-controller demotions).
	FuncPolicies int `json:"funcPolicies,omitempty"`
	// Counters is the aggregate conservation accounting. Mid-phase it may
	// lag the hot path by up to one publication window; after a completed
	// phase (FlushSampling) it is exact.
	Counters SamplingCounters `json:"counters"`
}

// Hot-path policy word: the low 32 bits carry the stride-1 mask for
// power-of-two strides; flagModulo marks a non-power-of-two stride (slow
// modulo path); flagTimed marks a policy that needs enter timestamps
// (min-duration or redundancy). One atomic load decides the whole fast
// path.
const (
	sampleMaskBits   = 0xffffffff
	sampleFlagModulo = 1 << 32
	sampleFlagTimed  = 1 << 33
)

// Drop classes recorded (packed into the timestamp stack) so the exit can
// attribute the measured duration exactly.
const (
	clsDelivered = iota
	clsSuppressed
	clsCollapsed
	clsSampledOut
)

// Timestamp-stack entry layout: now<<18 | cls<<16 | depth.
const (
	sampleDepthMask  = 0xffff
	sampleClsShift   = 16
	sampleStartShift = 18
)

// funcSampleState is one function's live sampling state: the atomically
// readable policy fields plus per-rank decision/counter slots. States are
// created when a function first receives a policy and are never removed —
// clearing a policy zeroes the fields but keeps the pairing stacks, so
// in-flight pairs stay balanced across the change.
type funcSampleState struct {
	// flags is the packed hot-path policy word (see sampleFlag*); 0 means
	// "deliver everything". stride/minDur/gapNs hold the full values for
	// the slow paths and snapshots.
	flags  atomic.Uint64
	stride atomic.Int64
	minDur atomic.Int64
	// gapNs > 0 means redundancy collapse is enabled with that gap.
	gapNs atomic.Int64

	// override marks a policy installed for this function explicitly (by
	// name, by ID or by the adapt controller) rather than inherited from the
	// table default. Guarded by Runtime.mu; the handler never reads it.
	override bool

	// slots is indexed by rank ID; ranks beyond the preallocated range go
	// through the overflow map (slower, but correct).
	slots    []sampleSlot
	overflow sync.Map // int -> *sampleSlot
}

// setPolicy publishes a policy. Handlers pick the new fields up on their
// next event; pairs already open complete under their recorded decisions.
func (st *funcSampleState) setPolicy(p SamplePolicy) {
	stride := int64(p.Stride)
	if stride < 1 {
		stride = 1
	}
	var gap int64
	if p.CollapseRedundant {
		gap = p.RedundantGapNs
		if gap <= 0 {
			gap = DefaultRedundantGapNs
		}
	}
	var flags uint64
	if stride > 1 {
		if stride&(stride-1) == 0 {
			flags |= uint64(stride - 1)
		} else {
			flags |= sampleFlagModulo
		}
	}
	if p.MinDurationNs > 0 || gap > 0 {
		flags |= sampleFlagTimed
	}
	st.stride.Store(stride)
	st.minDur.Store(p.MinDurationNs)
	st.gapNs.Store(gap)
	st.flags.Store(flags)
}

// sampleSlot is one (function, rank) sampling state. The plain fields are
// single-writer — only the rank's own goroutine executes handlers for that
// rank — and are mirrored into pub every samplePublishWindow enters.
type sampleSlot struct {
	// depth counts open invocations; bits is the deliver-decision stack
	// (bit 0 = innermost open invocation). Nesting deeper than 64 sheds
	// the oldest frames; the simulated workloads never approach that.
	depth int
	bits  uint64
	// ctr counts enters on this rank (the stride counter; also the total
	// enter count the mirrors publish).
	ctr uint64
	// starts is the enter-timestamp stack, pushed only for timed policies
	// (min-duration / redundancy). Each entry packs the virtual timestamp,
	// the 2-bit drop class and the frame's nesting depth
	// (now<<18 | cls<<16 | depth) — the depth match is how an exit knows
	// whether its enter pushed a timestamp, without the fast path paying
	// for a second pairing stack. The packing caps a timestamp at 2^45
	// virtual ns (~9.8 virtual hours); rank clocks restart at zero every
	// phase, so a single phase cannot approach it.
	starts []int64
	// lastDurNs is the most recent completed duration (-1 = none yet);
	// lastEndNs the virtual time of the most recent exit.
	lastDurNs int64
	lastEndNs int64

	// plain accumulation counters (single-writer).
	sampledOut, suppressed, collapsed int64
	suppressedNs, collapsedNs         int64

	// published mirrors, safe for concurrent readers.
	pubEnters, pubSampledOut, pubSuppressed, pubCollapsed atomic.Int64
	pubSuppressedNs, pubCollapsedNs                       atomic.Int64
}

func (sl *sampleSlot) init() { sl.lastDurNs = -1 }

// publish mirrors the plain counters into their atomics.
func (sl *sampleSlot) publish() {
	sl.pubEnters.Store(int64(sl.ctr))
	sl.pubSampledOut.Store(sl.sampledOut)
	sl.pubSuppressed.Store(sl.suppressed)
	sl.pubCollapsed.Store(sl.collapsed)
	sl.pubSuppressedNs.Store(sl.suppressedNs)
	sl.pubCollapsedNs.Store(sl.collapsedNs)
}

// counters reads the published mirrors.
func (sl *sampleSlot) counters() SamplingCounters {
	c := SamplingCounters{
		Enters:          sl.pubEnters.Load(),
		SampledEvents:   sl.pubSampledOut.Load(),
		SuppressedPairs: sl.pubSuppressed.Load(),
		SuppressedNs:    sl.pubSuppressedNs.Load(),
		CollapsedCalls:  sl.pubCollapsed.Load(),
		CollapsedNs:     sl.pubCollapsedNs.Load(),
	}
	c.Delivered = c.Enters - c.SampledEvents - c.SuppressedPairs - c.CollapsedCalls
	return c
}

// slot returns the rank's slot. Kept small enough to inline; rank IDs
// beyond the preallocated range take the cold overflow path.
func (st *funcSampleState) slot(rank int) *sampleSlot {
	if uint(rank) < uint(len(st.slots)) {
		return &st.slots[rank]
	}
	return st.overflowSlot(rank)
}

// overflowSlot is the reviewed slow path for rank IDs beyond the
// preallocated range: it may allocate and touch a sync.Map, so the hotpath
// traversal stops here.
//
//capi:coldpath
func (st *funcSampleState) overflowSlot(rank int) *sampleSlot {
	if v, ok := st.overflow.Load(rank); ok {
		return v.(*sampleSlot)
	}
	sl := &sampleSlot{}
	sl.init()
	v, _ := st.overflow.LoadOrStore(rank, sl)
	return v.(*sampleSlot)
}

// admit makes the deliver/drop decision for one event. It is the hot path:
// called from the XRay handler for every event of a function that ever had
// a sampling policy; the timed-policy work is kept out-of-line so the
// stride/no-policy path stays a handful of plain field operations.
//
//capi:hotpath
func (st *funcSampleState) admit(tc xray.ThreadCtx, kind xray.EntryType) bool {
	sl := st.slot(tc.RankID())
	if kind == xray.Entry {
		sl.ctr++
		flags := st.flags.Load()
		deliver := true
		// 1-in-N stride sampling: deliver the first of every stride enters.
		if mask := flags & sampleMaskBits; mask != 0 {
			if (sl.ctr-1)&mask != 0 {
				deliver = false
				sl.sampledOut++
			}
		} else if flags&sampleFlagModulo != 0 {
			if (sl.ctr-1)%uint64(st.stride.Load()) != 0 {
				deliver = false
				sl.sampledOut++
			}
		}
		// Record the decision so the matching exit follows it even if the
		// policy changes in between (exact pairing across live rate
		// changes).
		sl.depth++
		if flags&sampleFlagTimed != 0 {
			deliver = st.admitTimedEnter(sl, tc, deliver)
		}
		sl.bits <<= 1
		if deliver {
			sl.bits |= 1
		}
		if sl.ctr&(samplePublishWindow-1) == 0 {
			sl.publish()
		}
		return deliver
	}
	if sl.depth == 0 {
		// The enter predates the sampler (policy installed mid-pair): it
		// was delivered, so the exit must be too.
		return true
	}
	deliver := sl.bits&1 == 1
	if n := len(sl.starts); n > 0 && int(sl.starts[n-1]&sampleDepthMask) == sl.depth {
		st.finishTimedExit(sl, tc)
	}
	sl.depth--
	sl.bits >>= 1
	return deliver
}

// admitTimedEnter is the out-of-line enter path for policies that need the
// virtual clock (min-duration suppression, redundancy collapse). It pushes
// the packed timestamp entry and refines the deliver decision. Called with
// sl.depth already counting this frame.
func (st *funcSampleState) admitTimedEnter(sl *sampleSlot, tc xray.ThreadCtx, deliver bool) bool {
	now := tc.Clock().Now()
	minDur := st.minDur.Load()
	cls := clsDelivered
	if !deliver {
		cls = clsSampledOut
	} else {
		if gap := st.gapNs.Load(); gap > 0 && sl.lastDurNs >= 0 && now-sl.lastEndNs <= gap {
			// Redundancy: a repeat of a short call within the gap.
			short := minDur
			if short <= 0 {
				short = gap
			}
			if sl.lastDurNs < short {
				deliver, cls = false, clsCollapsed
				sl.collapsed++
			}
		}
		if deliver && minDur > 0 && sl.lastDurNs >= 0 && sl.lastDurNs < minDur {
			// Min-duration: predicted short from the last completed pair.
			deliver, cls = false, clsSuppressed
			sl.suppressed++
		}
	}
	//capi:hotpath-ok amortized per-rank timestamp stack: grows to the rank's max nesting depth once, then never again
	sl.starts = append(sl.starts,
		now<<sampleStartShift|int64(cls)<<sampleClsShift|int64(sl.depth&sampleDepthMask))
	return deliver
}

// finishTimedExit pops the frame's packed timestamp entry, updates the
// duration prediction and attributes the measured duration to its drop
// class — the exact accounting behind SuppressedNs/CollapsedNs: the pair's
// true duration is measured from the rank's virtual clock even though the
// pair was never delivered.
func (st *funcSampleState) finishTimedExit(sl *sampleSlot, tc xray.ThreadCtx) {
	packed := sl.starts[len(sl.starts)-1]
	sl.starts = sl.starts[:len(sl.starts)-1]
	now := tc.Clock().Now()
	dur := now - packed>>sampleStartShift
	sl.lastDurNs = dur
	sl.lastEndNs = now
	switch (packed >> sampleClsShift) & 3 {
	case clsSuppressed:
		sl.suppressedNs += dur
	case clsCollapsed:
		sl.collapsedNs += dur
	}
}

// flush publishes the exact counters of every slot. Quiescent-only: the
// plain fields are single-writer rank state, so this must not run while
// events are dispatching.
func (st *funcSampleState) flush() {
	for i := range st.slots {
		st.slots[i].publish()
	}
	st.overflow.Range(func(_, v any) bool {
		v.(*sampleSlot).publish()
		return true
	})
}

// flushRanks publishes the exact counters of the first n rank slots only,
// leaving higher ranks (HTTP request workers) untouched — their slots are
// single-writer state that may still be dispatching.
func (st *funcSampleState) flushRanks(n int) {
	if n > len(st.slots) {
		n = len(st.slots)
	}
	for i := 0; i < n; i++ {
		st.slots[i].publish()
	}
}

// counters sums the published counters of every slot.
func (st *funcSampleState) counters() SamplingCounters {
	var c SamplingCounters
	for i := range st.slots {
		c.add(st.slots[i].counters())
	}
	st.overflow.Range(func(_, v any) bool {
		c.add(v.(*sampleSlot).counters())
		return true
	})
	return c
}

// newFuncSampleState allocates the per-rank slots.
func newFuncSampleState(ranks int) *funcSampleState {
	st := &funcSampleState{slots: make([]sampleSlot, ranks)}
	for i := range st.slots {
		st.slots[i].init()
	}
	return st
}

// ---- Runtime sampling API -------------------------------------------------

// sampleState returns (creating if needed) the function's sampling state
// and hangs it off the ResolvedFunc for the lock-free hot path. The
// compare-and-swap makes it safe against the handler's lazy default-state
// creation racing a configuration change — exactly one state per function
// ever wins.
func (rt *Runtime) sampleState(rf *ResolvedFunc) *funcSampleState {
	if st := rf.sample.Load(); st != nil {
		return st
	}
	st := newFuncSampleState(rt.sampleRanks)
	if !rf.sample.CompareAndSwap(nil, st) {
		st = rf.sample.Load()
	}
	return st
}

// lazySampleState is the handler-side slow path: the function has no state
// yet but a table-wide default policy is installed, so materialize a state
// carrying it. dp is the default-policy pointer the handler read; if the
// table changed between that read and the state publication, re-apply the
// now-current policy so no state is left running a stale default. It
// allocates — once per function, on its first-ever event.
//
//capi:coldpath
func (rt *Runtime) lazySampleState(rf *ResolvedFunc, dp *SamplePolicy) *funcSampleState {
	st := newFuncSampleState(rt.sampleRanks)
	st.setPolicy(*dp)
	if !rf.sample.CompareAndSwap(nil, st) {
		return rf.sample.Load()
	}
	if cur := rt.defaultSample.Load(); cur != dp {
		if cur != nil {
			st.setPolicy(*cur)
		} else {
			st.setPolicy(SamplePolicy{})
		}
	}
	return st
}

// SetSampling installs a whole sampling table: the optional default policy
// applies to every resolved function, Funcs/IDs override per function. The
// table is validated and every name/ID resolved *before* anything is
// applied — an invalid config mutates nothing. An empty config clears all
// policies (pairing state is retained so open pairs stay balanced).
// Safe to call while handlers execute; rates change atomically per
// function without locking the hot path.
func (rt *Runtime) SetSampling(cfg SamplingConfig) error {
	if cfg.Default != nil {
		if err := cfg.Default.validate(); err != nil {
			return err
		}
	}
	for name, p := range cfg.Funcs {
		if err := p.validate(); err != nil {
			return &PolicyError{Field: "funcs", Msg: fmt.Sprintf("%v (function %q)", err, name)}
		}
	}
	for id, p := range cfg.IDs {
		if err := p.validate(); err != nil {
			return &PolicyError{Field: "ids", Msg: fmt.Sprintf("%v (id %d)", err, id)}
		}
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()

	// Resolve names first: unknown names (or IDs) reject the whole config
	// before any policy is touched — the control plane's no-mutation-on-400
	// guarantee rests on this.
	var unknown []string
	for name := range cfg.Funcs {
		if len(rt.byName[name]) == 0 {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return &PolicyError{Field: "funcs", Msg: fmt.Sprintf("dyncapi: unknown function name(s) in sampling config: %s", strings.Join(unknown, ", "))}
	}
	for id := range cfg.IDs {
		if rt.slot(id) == nil {
			return &PolicyError{Field: "ids", Msg: fmt.Sprintf("dyncapi: unknown function id %d in sampling config", id)}
		}
	}

	// The explicit per-function overrides (by name, then by ID). The default
	// policy is NOT expanded per function here: it is published as one atomic
	// pointer and materialized into per-function state lazily, on a
	// function's first event — a table-wide default over a paper-scale
	// call graph (~410k functions) must not allocate per-function slots
	// for functions that never fire.
	overrides := make(map[*ResolvedFunc]SamplePolicy)
	for name, p := range cfg.Funcs {
		for _, rf := range rt.byName[name] {
			overrides[rf] = p
		}
	}
	for id, p := range cfg.IDs {
		overrides[rt.slot(id)] = p
	}

	def := SamplePolicy{}
	if cfg.Default != nil {
		def = *cfg.Default
		rt.sampleDefault = &def
	} else {
		rt.sampleDefault = nil
	}
	// Publish the new default before re-pointing existing states so a
	// concurrent lazy creation can never resurrect the old table. A clear
	// keeps the accounting, not just the existing states: the published
	// default stays non-nil (zero policy: deliver everything) so a function
	// first firing *after* the clear still materializes a counting state.
	// Publishing nil here would let such functions deliver uncounted events,
	// breaking the independently verified identity backendEnters ==
	// delivered for the clear windows of a live rate-change sequence.
	rt.defaultSample.Store(&def)
	// Every function that already has a state and no override in this table
	// — lazily materialized defaults from the previous one, cleared
	// overrides, adapt demotions — is re-pointed at the new default (or
	// cleared).
	for rf := range rt.all() {
		if st := rf.sample.Load(); st != nil {
			if _, ok := overrides[rf]; !ok {
				st.setPolicy(def)
				st.override = false
			}
		}
	}
	// Overridden functions get their state eagerly (there are few).
	for rf, p := range overrides {
		st := rt.sampleState(rf)
		st.setPolicy(p)
		st.override = true
	}
	rt.sampleOverrides = len(overrides)
	return nil
}

// SetFuncSampling installs (or, with a nil policy, removes) one function's
// policy *override*, leaving the rest of the table untouched — the adapt
// controller's demote/promote primitive. Removing an override reverts the
// function to the installed table's default policy (full delivery when no
// default is installed), so a controller promotion cannot silently erode a
// user-installed table. Safe concurrent with handlers.
func (rt *Runtime) SetFuncSampling(id int32, p *SamplePolicy) error {
	if p != nil {
		if err := p.validate(); err != nil {
			return err
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rf := rt.slot(id)
	if rf == nil {
		return fmt.Errorf("dyncapi: unknown function id %d", id)
	}
	if p == nil {
		if st := rf.sample.Load(); st != nil {
			if rt.sampleDefault != nil {
				st.setPolicy(*rt.sampleDefault)
			} else {
				st.setPolicy(SamplePolicy{})
			}
			if st.override {
				st.override = false
				rt.sampleOverrides--
			}
		}
		return nil
	}
	st := rt.sampleState(rf)
	st.setPolicy(*p)
	if !st.override {
		st.override = true
		rt.sampleOverrides++
	}
	return nil
}

// SamplingCounters sums the sampler's published counters over every
// function and rank. Mid-phase the result may lag the hot path by up to one
// publication window per rank; after FlushSampling it is exact.
func (rt *Runtime) SamplingCounters() SamplingCounters {
	var c SamplingCounters
	for _, st := range rt.sampleStatesSnapshot() {
		c.add(st.counters())
	}
	return c
}

// FlushSampling publishes the exact per-rank counters. It must only be
// called while no events are dispatching (between phases); Instance.Run
// flushes after the execution engine has joined its rank goroutines.
func (rt *Runtime) FlushSampling() {
	for _, st := range rt.sampleStatesSnapshot() {
		st.flush()
	}
}

// FlushSamplingRanks publishes the exact counters of ranks [0, n) only.
// Unlike FlushSampling it is safe while ranks >= n keep dispatching (each
// slot is single-writer per rank): Instance.Run uses it to flush the MPI
// world after the engine has joined, without touching HTTP worker ranks
// that may still be serving request traffic.
func (rt *Runtime) FlushSamplingRanks(n int) {
	for _, st := range rt.sampleStatesSnapshot() {
		st.flushRanks(n)
	}
}

// sampleStatesSnapshot collects every materialized sampling state. The
// tables never move after New and the per-function pointers are atomic, so
// no lock is needed; states created during the walk are simply picked up by
// the next snapshot.
func (rt *Runtime) sampleStatesSnapshot() []*funcSampleState {
	var out []*funcSampleState
	for rf := range rt.all() {
		if st := rf.sample.Load(); st != nil {
			out = append(out, st)
		}
	}
	return out
}

// SamplingSnapshot returns the current sampling view: whether a table is
// installed, the default policy, the override count and the aggregate
// counters.
func (rt *Runtime) SamplingSnapshot() SamplingSnapshot {
	rt.mu.Lock()
	snap := SamplingSnapshot{
		Configured:   rt.sampleDefault != nil || rt.sampleOverrides > 0,
		FuncPolicies: rt.sampleOverrides,
	}
	if rt.sampleDefault != nil {
		p := *rt.sampleDefault
		snap.Default = &p
	}
	rt.mu.Unlock()
	for _, st := range rt.sampleStatesSnapshot() {
		snap.Counters.add(st.counters())
	}
	return snap
}
