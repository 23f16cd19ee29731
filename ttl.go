package capi

// Ephemeral probes: a selection or sampling override installed with a TTL
// auto-reverts to the pre-override snapshot when the TTL expires — the
// Diagnose library's "probes have a lifespan" promise. Expiry is delivered
// as a perfectly ordinary Reconfigure/SetSampling (same locks, same
// accounting, same SSE visibility), from the pending revert's own
// time.AfterFunc timer. Two ordering guarantees hold under every
// interleaving: nothing is applied after Close returns, and Close waits
// for a revert that is already being applied.
//
// Composition with manual control: an explicit Reconfigure/SetSampling
// landing before expiry *cancels* the pending revert — the newest explicit
// state wins and becomes the base a later TTL'd override reverts to. Two
// overlapping TTL'd overrides coalesce: the second keeps the *original*
// base (the last explicit state), so expiry never reverts to another
// ephemeral override. The adapt controller narrows the selection through
// the runtime directly, not through Instance.Reconfigure, so controller
// decisions never count as the explicit base — a TTL'd override therefore
// does not fight the ladder: expiry restores the last explicit selection
// and the controller re-narrows from there if pressure persists.

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"capi/internal/ic"
)

// ErrNoTTLBase is returned by ReconfigureTTL on an instance started with
// PatchAll that was never explicitly selected: there is no base selection
// an ephemeral override could revert to.
var ErrNoTTLBase = errors.New("capi: ttl'd selection needs a base to revert to (instance started with PatchAll and never explicitly selected)")

// ttlKind distinguishes the two pending-revert slots.
type ttlKind int

const (
	ttlSelect ttlKind = iota
	ttlSampling
)

// pendingRevert is one scheduled auto-revert. Its timer applies it only
// while it is still the revert in its slot.
type pendingRevert struct {
	deadline     time.Time // monotonic
	baseIC       *ic.Config
	baseSampling SamplingOptions
	timer        *time.Timer
}

// ttlState is the ephemeral-probe scheduler embedded in Instance. Its
// mutex is independent of Instance.mu; no goroutine runs until a pending
// revert's timer fires.
type ttlState struct {
	mu sync.Mutex
	// applying counts the reverts being applied; ttlStop waits for them.
	applying sync.WaitGroup

	//capi:guardedby mu
	pending [2]*pendingRevert // indexed by ttlKind
	//capi:guardedby mu
	notify func(TTLExpiry)
	// userIC / lastSampling are the explicit base snapshots a TTL'd
	// override reverts to: the last selection applied through
	// Start/Reconfigure and the last table applied through
	// RunOptions.Sampling/SetSampling (zero value = cleared table).
	//capi:guardedby mu
	userIC *ic.Config
	//capi:guardedby mu
	lastSampling SamplingOptions
	//capi:guardedby mu
	scheduled int64
	//capi:guardedby mu
	expired int64
	//capi:guardedby mu
	canceled int64
}

// TTLExpiry describes one delivered auto-revert, passed to the function
// registered with Instance.SetTTLNotify (the control plane's SSE "expired"
// event). Exactly one of Report/Sampling is set, matching Kind.
type TTLExpiry struct {
	// Kind is "select" or "sampling".
	Kind string `json:"kind"`
	// Report is the revert's ReconfigReport (Kind "select").
	Report *ReconfigReport `json:"report,omitempty"`
	// Sampling is the restored table's snapshot (Kind "sampling").
	Sampling *SamplingSnapshot `json:"sampling,omitempty"`
}

// TTLStatus is the scheduler's point-in-time state, surfaced in
// InstanceStatus and as capi_ttl_* Prometheus series.
type TTLStatus struct {
	// SelectPending / SamplingPending report a scheduled revert;
	// the *RemainingSeconds fields count down to it.
	SelectPending            bool    `json:"selectPending"`
	SelectRemainingSeconds   float64 `json:"selectRemainingSeconds,omitempty"`
	SamplingPending          bool    `json:"samplingPending"`
	SamplingRemainingSeconds float64 `json:"samplingRemainingSeconds,omitempty"`
	// Scheduled counts every TTL ever accepted; Expired the reverts
	// delivered; Canceled the pending reverts an explicit select/sampling
	// call superseded.
	Scheduled int64 `json:"scheduled"`
	Expired   int64 `json:"expired"`
	Canceled  int64 `json:"canceled"`
}

// ReconfigureTTL applies a selection like Reconfigure and schedules an
// auto-revert: after ttl the instance reverts to the last *explicit*
// selection (Start's, or the most recent Reconfigure's). A pending revert
// is coalesced — a second TTL'd select keeps the original base and moves
// the deadline. The revert is delivered as a normal Reconfigure and
// announced through SetTTLNotify. It fails on an instance started with
// PatchAll and never explicitly selected (there is no base to revert to).
func (i *Instance) ReconfigureTTL(sel *Selection, ttl time.Duration) (ReconfigReport, error) {
	if sel == nil || sel.IC == nil {
		return ReconfigReport{}, fmt.Errorf("capi: nil selection")
	}
	if ttl <= 0 {
		return ReconfigReport{}, fmt.Errorf("capi: ttl must be positive, got %v", ttl)
	}
	i.ttl.mu.Lock()
	base := i.ttl.userIC
	if p := i.ttl.pending[ttlSelect]; p != nil {
		base = p.baseIC
	}
	i.ttl.mu.Unlock()
	if base == nil {
		return ReconfigReport{}, ErrNoTTLBase
	}
	rep, err := i.applySelection(sel.IC)
	if err != nil {
		return rep, err
	}
	i.scheduleRevert(ttlSelect, &pendingRevert{baseIC: base}, ttl)
	return rep, nil
}

// SetSamplingTTL installs a sampling table like SetSampling and schedules
// an auto-revert to the last explicit table (an empty table — full
// delivery — when none was ever installed). Coalescing and cancellation
// follow ReconfigureTTL.
func (i *Instance) SetSamplingTTL(cfg SamplingOptions, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("capi: ttl must be positive, got %v", ttl)
	}
	i.ttl.mu.Lock()
	base := copySamplingConfig(i.ttl.lastSampling)
	if p := i.ttl.pending[ttlSampling]; p != nil {
		base = p.baseSampling
	}
	i.ttl.mu.Unlock()
	if err := i.applySampling(cfg); err != nil {
		return err
	}
	i.scheduleRevert(ttlSampling, &pendingRevert{baseSampling: base}, ttl)
	return nil
}

// SetTTLNotify registers fn to be called for every delivered auto-revert,
// on the expiring revert's own timer goroutine. A select and a sampling
// revert may deliver concurrently, as explicit calls already can. fn must
// not call Close, which waits for it. Pass nil to unregister.
func (i *Instance) SetTTLNotify(fn func(TTLExpiry)) {
	i.ttl.mu.Lock()
	i.ttl.notify = fn
	i.ttl.mu.Unlock()
}

// ttlStatus returns the scheduler's current state.
func (i *Instance) ttlStatus() TTLStatus {
	now := time.Now()
	i.ttl.mu.Lock()
	defer i.ttl.mu.Unlock()
	st := TTLStatus{
		Scheduled: i.ttl.scheduled,
		Expired:   i.ttl.expired,
		Canceled:  i.ttl.canceled,
	}
	if p := i.ttl.pending[ttlSelect]; p != nil {
		st.SelectPending = true
		st.SelectRemainingSeconds = maxSeconds(p.deadline.Sub(now))
	}
	if p := i.ttl.pending[ttlSampling]; p != nil {
		st.SamplingPending = true
		st.SamplingRemainingSeconds = maxSeconds(p.deadline.Sub(now))
	}
	return st
}

func maxSeconds(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// scheduleRevert installs p into the kind's slot (keeping an existing
// pending revert's base — overlap coalesces to the original snapshot),
// stops the timer of the revert it replaces and arms p's. Once closed it
// schedules nothing.
func (i *Instance) scheduleRevert(kind ttlKind, p *pendingRevert, ttl time.Duration) {
	p.deadline = time.Now().Add(ttl)
	i.ttl.mu.Lock()
	defer i.ttl.mu.Unlock()
	if i.closed.Load() {
		return
	}
	if old := i.ttl.pending[kind]; old != nil {
		old.timer.Stop()
	}
	i.ttl.pending[kind] = p
	i.ttl.scheduled++
	p.timer = time.AfterFunc(ttl, func() { i.expire(kind, p) })
}

// ttlExplicitSelect records an explicit selection as the new revert base
// and cancels a pending selection revert — the newest explicit select
// wins.
func (i *Instance) ttlExplicitSelect(cfg *ic.Config) {
	i.ttl.mu.Lock()
	i.ttl.userIC = cfg
	i.ttl.cancel(ttlSelect)
	i.ttl.mu.Unlock()
}

// ttlExplicitSampling records an explicit table as the new revert base and
// cancels a pending sampling revert.
func (i *Instance) ttlExplicitSampling(cfg SamplingOptions) {
	i.ttl.mu.Lock()
	i.ttl.lastSampling = copySamplingConfig(cfg)
	i.ttl.cancel(ttlSampling)
	i.ttl.mu.Unlock()
}

// cancel stops the kind's pending revert, if any, and clears its slot:
// an explicit call superseded it.
//
//capi:locked mu
func (t *ttlState) cancel(kind ttlKind) {
	if p := t.pending[kind]; p != nil {
		p.timer.Stop()
		t.pending[kind] = nil
		t.canceled++
	}
}

// ttlStop shuts the scheduler down (Close, after it set closed): pending
// reverts are dropped undelivered, and a revert already being applied has
// finished on return. A scheduleRevert that saw closed unset installed its
// revert before this takes the lock, so it is dropped here too.
func (i *Instance) ttlStop() {
	i.ttl.mu.Lock()
	for kind, p := range i.ttl.pending {
		if p != nil {
			p.timer.Stop()
			i.ttl.pending[kind] = nil
		}
	}
	i.ttl.mu.Unlock()
	i.ttl.applying.Wait()
}

// expire is p's timer: if p is still the kind's pending revert it takes
// it out of the slot and applies it outside the TTL lock, through the
// same internal apply helpers the explicit calls use — but without the
// cancel step, so delivering a revert never cancels the other slot's.
func (i *Instance) expire(kind ttlKind, p *pendingRevert) {
	i.ttl.mu.Lock()
	if i.ttl.pending[kind] != p {
		i.ttl.mu.Unlock() // replaced, canceled or stopped meanwhile
		return
	}
	i.ttl.pending[kind] = nil
	i.ttl.expired++
	notify := i.ttl.notify
	i.ttl.applying.Add(1)
	i.ttl.mu.Unlock()
	defer i.ttl.applying.Done()
	switch kind {
	case ttlSelect:
		if rep, err := i.applySelection(p.baseIC); err == nil && notify != nil {
			notify(TTLExpiry{Kind: "select", Report: &rep})
		}
	case ttlSampling:
		if err := i.applySampling(p.baseSampling); err == nil && notify != nil {
			snap := i.Sampling()
			notify(TTLExpiry{Kind: "sampling", Sampling: &snap})
		}
	}
}

// copySamplingConfig deep-copies a sampling table so a scheduled revert
// can never observe caller mutations of the original maps.
func copySamplingConfig(cfg SamplingOptions) SamplingOptions {
	out := SamplingOptions{}
	if cfg.Default != nil {
		d := *cfg.Default
		out.Default = &d
	}
	if len(cfg.Funcs) > 0 {
		out.Funcs = maps.Clone(cfg.Funcs)
	}
	if len(cfg.IDs) > 0 {
		out.IDs = maps.Clone(cfg.IDs)
	}
	return out
}
