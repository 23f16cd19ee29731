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
// A table costs only the functions it samples: a function gets state only
// with its own policy or under a default that samples or suppresses (its
// stride phase starts there); any other function's enter is just counted.
//
// Counter visibility: the counters live in one account per rank, plain
// fields written by the rank's goroutine and mirrored into atomics every
// publication window (64 enters of that rank). Mid-phase scrapes read the
// mirrors and lag by at most one window per rank; FlushSampling publishes
// the exact values and must only run while the ranks it flushes dispatch
// nothing (Instance.Run flushes after the engine joins its rank goroutines).
package dyncapi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"capi/internal/xray"
)

// DefaultRedundantGapNs is the redundancy-suppression gap used when a
// policy enables CollapseRedundant without choosing one: two calls of the
// same function starting within this window (virtual ns) count as repeats.
const DefaultRedundantGapNs = 1000

// samplePublishWindow is the enter count of a rank between publications of
// its account's plain counters into their atomic mirrors (a power of two).
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
	// lag the hot path by up to one publication window per rank; after a
	// completed phase (FlushSampling) it is exact.
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

// Drop classes recorded in a timed frame so the exit can attribute the
// measured duration exactly.
const (
	clsDelivered = iota
	clsSuppressed
	clsCollapsed
	clsSampledOut
)

// sampleFrame is one invocation opened under a timed policy: its start, its
// drop class and the frames open beneath it, which is how an exit knows
// whether its own enter (timed policies only) pushed the innermost frame.
type sampleFrame struct {
	startNs int64
	below   int
	cls     uint8
}

// funcSampleState is one function's live sampling state: the atomically
// readable policy fields plus per-rank decision slots. States are created
// when a function first receives its own policy, or first fires under a
// default that samples or suppresses, and are never removed — clearing a
// policy zeroes the fields but keeps the pairing stacks, so in-flight pairs
// stay balanced across the change.
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

	// slots is indexed by rank ID, one per rank the runtime was sized for
	// (Options.Ranks): no other rank ID can dispatch.
	slots []sampleSlot
}

// setPolicy publishes a policy. Handlers pick the new fields up on their
// next event; pairs already open complete under their recorded decisions.
func (st *funcSampleState) setPolicy(p SamplePolicy) {
	stride := max(int64(p.Stride), 1)
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

// deliverAll is the published default of a table whose default delivers
// everything: under it a function without its own policy gets no state.
var deliverAll SamplePolicy

// sampleAccount is one rank's conservation accounting over every function:
// plain fields written by the rank's goroutine, mirrored into pub.
type sampleAccount struct {
	enters, sampledOut, suppressed, collapsed int64
	suppressedNs, collapsedNs                 int64

	// published mirrors, safe for concurrent readers.
	pubEnters, pubSampledOut, pubSuppressed, pubCollapsed atomic.Int64
	pubSuppressedNs, pubCollapsedNs                       atomic.Int64

	// Pads to 128 bytes: the next rank's account starts on a line this rank
	// does not write, at any 8-byte offset up to 32 bytes past a line.
	_ [32]byte
}

// enter counts an enter whose drop class, if any, is already counted.
//
//capi:hotpath
func (a *sampleAccount) enter() {
	a.enters++
	if a.enters&(samplePublishWindow-1) == 0 {
		a.publish()
	}
}

// publish mirrors the plain counters into their atomics.
func (a *sampleAccount) publish() {
	a.pubEnters.Store(a.enters)
	a.pubSampledOut.Store(a.sampledOut)
	a.pubSuppressed.Store(a.suppressed)
	a.pubCollapsed.Store(a.collapsed)
	a.pubSuppressedNs.Store(a.suppressedNs)
	a.pubCollapsedNs.Store(a.collapsedNs)
}

// counters reads the published mirrors.
func (a *sampleAccount) counters() SamplingCounters {
	c := SamplingCounters{
		Enters:          a.pubEnters.Load(),
		SampledEvents:   a.pubSampledOut.Load(),
		SuppressedPairs: a.pubSuppressed.Load(),
		SuppressedNs:    a.pubSuppressedNs.Load(),
		CollapsedCalls:  a.pubCollapsed.Load(),
		CollapsedNs:     a.pubCollapsedNs.Load(),
	}
	c.Delivered = c.Enters - c.SampledEvents - c.SuppressedPairs - c.CollapsedCalls
	return c
}

// sampleSlot is one (function, rank) sampling state. Its fields are
// single-writer — only the rank's own goroutine executes handlers for that
// rank.
type sampleSlot struct {
	// pairs is the deliver-decision stack of the open invocations.
	pairs pairStack
	// ctr counts the function's enters on this rank under a sampling
	// policy (the stride counter).
	ctr uint64
	// starts is the timed-frame stack, pushed only for timed policies
	// (min-duration / redundancy).
	starts []sampleFrame
	// lastDurNs is the most recent completed duration (-1 = none yet);
	// lastEndNs the virtual time of the most recent exit.
	lastDurNs int64
	lastEndNs int64

	spill []uint64 // pairs' words past 64 frames
	// Pads to 128 bytes: the next rank's per-event depth and bits stay off
	// these lines even 8 bytes past a line (the allocator's type header).
	_ [40]byte
}

func (sl *sampleSlot) init() { sl.lastDurNs = -1 }

// admit makes the deliver/drop decision for one event and books the rank's
// account. It is the hot path: called from the XRay handler for every event
// of a function with sampling state; the timed-policy work is kept
// out-of-line so the stride/no-policy path stays a handful of plain field
// operations.
//
//capi:hotpath
func (st *funcSampleState) admit(accounts []sampleAccount, tc xray.ThreadCtx, kind xray.EntryType) bool {
	r := tc.RankID()
	sl := &st.slots[r]
	if kind == xray.Entry {
		a := &accounts[r]
		sl.ctr++
		flags := st.flags.Load()
		deliver := true
		// 1-in-N stride sampling: deliver the first of every stride enters.
		if mask := flags & sampleMaskBits; mask != 0 {
			if (sl.ctr-1)&mask != 0 {
				deliver = false
				a.sampledOut++
			}
		} else if flags&sampleFlagModulo != 0 {
			if (sl.ctr-1)%uint64(st.stride.Load()) != 0 {
				deliver = false
				a.sampledOut++
			}
		}
		if flags&sampleFlagTimed != 0 {
			deliver = st.admitTimedEnter(sl, a, tc, deliver)
		}
		// Record the decision so the matching exit follows it even if the
		// policy changes in between (exact pairing across live rate
		// changes).
		sl.pairs.push(deliver, &sl.spill)
		a.enter()
		return deliver
	}
	deliver, ok := sl.pairs.pop(&sl.spill)
	if !ok {
		// The enter predates the function's state (policy installed
		// mid-pair): it was delivered, so the exit must be too.
		return true
	}
	if n := len(sl.starts); n > 0 && sl.starts[n-1].below == sl.pairs.depth {
		st.finishTimedExit(sl, &accounts[r], tc)
	}
	return deliver
}

// admitTimedEnter is the out-of-line enter path for policies that need the
// virtual clock (min-duration suppression, redundancy collapse). It pushes
// the frame's timed record and refines the deliver decision. Called before
// the frame's decision is pushed on sl.pairs.
func (st *funcSampleState) admitTimedEnter(sl *sampleSlot, a *sampleAccount, tc xray.ThreadCtx, deliver bool) bool {
	now := tc.Clock().Now()
	minDur := st.minDur.Load()
	cls := uint8(clsDelivered)
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
				a.collapsed++
			}
		}
		if deliver && minDur > 0 && sl.lastDurNs >= 0 && sl.lastDurNs < minDur {
			// Min-duration: predicted short from the last completed pair.
			deliver, cls = false, clsSuppressed
			a.suppressed++
		}
	}
	//capi:hotpath-ok amortized per-rank frame stack: grows to the rank's max nesting depth once, then never again
	sl.starts = append(sl.starts, sampleFrame{startNs: now, below: sl.pairs.depth, cls: cls})
	return deliver
}

// finishTimedExit pops the frame's timed record, updates the
// duration prediction and attributes the measured duration to its drop
// class — the exact accounting behind SuppressedNs/CollapsedNs: the pair's
// true duration is measured from the rank's virtual clock even though the
// pair was never delivered.
func (st *funcSampleState) finishTimedExit(sl *sampleSlot, a *sampleAccount, tc xray.ThreadCtx) {
	f := sl.starts[len(sl.starts)-1]
	sl.starts = sl.starts[:len(sl.starts)-1]
	now := tc.Clock().Now()
	dur := now - f.startNs
	sl.lastDurNs = dur
	sl.lastEndNs = now
	switch f.cls {
	case clsSuppressed:
		a.suppressedNs += dur
	case clsCollapsed:
		a.collapsedNs += dur
	}
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
	st := newFuncSampleState(rt.opts.Ranks)
	if !rf.sample.CompareAndSwap(nil, st) {
		st = rf.sample.Load()
	}
	return st
}

// lazySampleState is the handler-side slow path: the function has no state
// yet but the table's default samples or suppresses, so materialize a state
// carrying it. dp is the default the handler read; if the table changed
// between that read and the state publication, re-apply the now-current
// policy so no state is left running a stale default. It allocates, once.
//
//capi:coldpath
func (rt *Runtime) lazySampleState(rf *ResolvedFunc, dp *SamplePolicy) *funcSampleState {
	st := newFuncSampleState(rt.opts.Ranks)
	st.setPolicy(*dp)
	if !rf.sample.CompareAndSwap(nil, st) {
		return rf.sample.Load()
	}
	if cur := rt.defaultSample.Load(); cur != dp {
		st.setPolicy(*cur) // never nil again once a table was installed
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
		if rt.ByName(name) == nil {
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
	// pointer and, when it samples or suppresses, materialized into
	// per-function state lazily, on a function's first event — a table-wide
	// default over a paper-scale call graph (~410k functions) must not
	// allocate per-function slots for functions that never fire.
	overrides := make(map[*ResolvedFunc]SamplePolicy)
	for name, p := range cfg.Funcs {
		overrides[rt.ByName(name)] = p
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
	// keeps the accounting: the published default stays non-nil
	// (deliverAll), so an enter without state after the clear is still
	// counted. Publishing nil would let such functions deliver uncounted
	// events, breaking backendEnters == delivered for the clear windows of a
	// live rate-change sequence.
	if def.Stride <= 1 && def.MinDurationNs == 0 && !def.CollapseRedundant {
		rt.defaultSample.Store(&deliverAll)
	} else {
		rt.defaultSample.Store(&def)
	}
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

// FlushSampling publishes the exact counters of ranks [0, n), n <= Ranks().
// No rank below n may be dispatching; ranks >= n may (each account is
// single-writer per rank): Instance.Run flushes the MPI world after the
// engine has joined, without touching HTTP worker ranks that may still be
// serving request traffic.
func (rt *Runtime) FlushSampling(n int) {
	for i := range rt.accounts[:n] {
		rt.accounts[i].publish()
	}
}

// samplingCounters sums the ranks' published accounts.
func (rt *Runtime) samplingCounters() SamplingCounters {
	var c SamplingCounters
	for i := range rt.accounts {
		c.add(rt.accounts[i].counters())
	}
	return c
}

// SamplingSnapshot returns the current sampling view: whether a table is
// installed, the default policy, the override count and the counters summed
// over every rank's account. Mid-phase the counters may lag the hot path by
// up to one publication window per rank; after FlushSampling they are
// exact.
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
	snap.Counters = rt.samplingCounters()
	return snap
}
