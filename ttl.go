package capi

// Ephemeral probes: a selection or sampling override installed with a TTL
// auto-reverts to the pre-override snapshot when the TTL expires — the
// Diagnose library's "probes have a lifespan" promise. Expiry is delivered
// as a perfectly ordinary Reconfigure/SetSampling (same locks, same
// accounting, same SSE visibility), driven by a deadline.Loop: a single
// timer goroutine that exists only while a revert is pending, and when
// both a select and a sampling TTL are pending sleeps until the earlier
// one.
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

	"capi/internal/deadline"
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

// pendingRevert is one scheduled auto-revert.
type pendingRevert struct {
	deadline     time.Time // monotonic
	baseIC       *ic.Config
	baseSampling SamplingOptions
}

// ttlState is the ephemeral-probe scheduler embedded in Instance. Its
// mutex is independent of Instance.mu; loop's timer goroutine only runs
// while a revert is pending.
type ttlState struct {
	mu   sync.Mutex
	loop *deadline.Loop

	//capi:guardedby mu
	sel *pendingRevert // pending selection revert
	//capi:guardedby mu
	smp *pendingRevert // pending sampling revert
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
	if i.rt == nil {
		return ReconfigReport{}, fmt.Errorf("capi: instance is not instrumented")
	}
	if sel == nil || sel.IC == nil {
		return ReconfigReport{}, fmt.Errorf("capi: nil selection")
	}
	if ttl <= 0 {
		return ReconfigReport{}, fmt.Errorf("capi: ttl must be positive, got %v", ttl)
	}
	i.ttl.mu.Lock()
	base := i.ttl.userIC
	if i.ttl.sel != nil {
		base = i.ttl.sel.baseIC
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
	if i.rt == nil {
		return fmt.Errorf("capi: instance is not instrumented")
	}
	if ttl <= 0 {
		return fmt.Errorf("capi: ttl must be positive, got %v", ttl)
	}
	i.ttl.mu.Lock()
	base := copySamplingConfig(i.ttl.lastSampling)
	if i.ttl.smp != nil {
		base = i.ttl.smp.baseSampling
	}
	i.ttl.mu.Unlock()
	if err := i.applySampling(cfg); err != nil {
		return err
	}
	i.scheduleRevert(ttlSampling, &pendingRevert{baseSampling: base}, ttl)
	return nil
}

// SetTTLNotify registers fn to be called (on the timer goroutine) for
// every delivered auto-revert. Pass nil to unregister.
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
	if p := i.ttl.sel; p != nil {
		st.SelectPending = true
		st.SelectRemainingSeconds = maxSeconds(p.deadline.Sub(now))
	}
	if p := i.ttl.smp; p != nil {
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
// pending revert's base — overlap coalesces to the original snapshot) and
// makes sure the timer goroutine runs and sees the new deadline.
func (i *Instance) scheduleRevert(kind ttlKind, p *pendingRevert, ttl time.Duration) {
	p.deadline = time.Now().Add(ttl)
	i.ttl.mu.Lock()
	switch kind {
	case ttlSelect:
		i.ttl.sel = p
	case ttlSampling:
		i.ttl.smp = p
	}
	i.ttl.scheduled++
	i.ttl.mu.Unlock()
	i.ttl.loop.Kick()
}

// ttlExplicitSelect records an explicit selection as the new revert base
// and cancels a pending selection revert — the newest explicit select
// wins.
func (i *Instance) ttlExplicitSelect(cfg *ic.Config) {
	i.ttl.mu.Lock()
	i.ttl.userIC = cfg
	if i.ttl.sel != nil {
		i.ttl.sel = nil
		i.ttl.canceled++
		i.ttl.loop.Kick() // lets the goroutine that slept for it exit
	}
	i.ttl.mu.Unlock()
}

// ttlExplicitSampling records an explicit table as the new revert base and
// cancels a pending sampling revert.
func (i *Instance) ttlExplicitSampling(cfg SamplingOptions) {
	i.ttl.mu.Lock()
	i.ttl.lastSampling = copySamplingConfig(cfg)
	if i.ttl.smp != nil {
		i.ttl.smp = nil
		i.ttl.canceled++
		i.ttl.loop.Kick() // lets the goroutine that slept for it exit
	}
	i.ttl.mu.Unlock()
}

// ttlStop shuts the scheduler down (Close): pending reverts are dropped
// undelivered and the timer goroutine, if any, has exited on return.
func (i *Instance) ttlStop() {
	i.ttl.mu.Lock()
	i.ttl.sel = nil
	i.ttl.smp = nil
	i.ttl.mu.Unlock()
	i.ttl.loop.Close()
}

// ttlNext is the scheduler's deadline.Loop next: the earlier of the two
// pending reverts.
func (i *Instance) ttlNext() (time.Time, bool) {
	i.ttl.mu.Lock()
	defer i.ttl.mu.Unlock()
	var next time.Time
	if p := i.ttl.sel; p != nil {
		next = p.deadline
	}
	if p := i.ttl.smp; p != nil && (next.IsZero() || p.deadline.Before(next)) {
		next = p.deadline
	}
	return next, !next.IsZero()
}

// deliverExpiries is the scheduler's deadline.Loop fire: it pops every
// revert due at now and applies it outside the TTL lock, through the same
// internal apply helpers the explicit calls use — but without the cancel
// step, so delivering a revert never cancels the other slot's pending
// revert.
func (i *Instance) deliverExpiries(now time.Time) {
	var sel, smp *pendingRevert
	i.ttl.mu.Lock()
	if p := i.ttl.sel; p != nil && !p.deadline.After(now) {
		sel, i.ttl.sel = p, nil
		i.ttl.expired++
	}
	if p := i.ttl.smp; p != nil && !p.deadline.After(now) {
		smp, i.ttl.smp = p, nil
		i.ttl.expired++
	}
	notify := i.ttl.notify
	i.ttl.mu.Unlock()
	if sel != nil {
		if rep, err := i.applySelection(sel.baseIC); err == nil && notify != nil {
			notify(TTLExpiry{Kind: "select", Report: &rep})
		}
	}
	if smp != nil {
		if err := i.applySampling(smp.baseSampling); err == nil && notify != nil {
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
