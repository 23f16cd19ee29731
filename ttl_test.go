package capi_test

import (
	"errors"
	"testing"
	"time"

	capi "capi"
)

// ttlFixture is one live instance plus the machinery the interleaving
// table needs: a wide and a narrow selection to flip between, and a
// channel fed by SetTTLNotify so tests wait for delivered reverts instead
// of sleeping.
type ttlFixture struct {
	inst         *capi.Instance
	wide, narrow *capi.Selection
	expiries     chan capi.TTLExpiry
}

func newTTLFixture(t *testing.T) *ttlFixture {
	t.Helper()
	s := newQuickSession(t)
	wide, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.Select(quickCoarseSpec)
	if err != nil {
		t.Fatal(err)
	}
	if wide.IC.Len() == narrow.IC.Len() {
		t.Fatalf("fixture needs distinguishable selections, both have %d functions", wide.IC.Len())
	}
	inst, err := s.Start(wide, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	f := &ttlFixture{inst: inst, wide: wide, narrow: narrow, expiries: make(chan capi.TTLExpiry, 4)}
	inst.SetTTLNotify(func(e capi.TTLExpiry) { f.expiries <- e })
	return f
}

func (f *ttlFixture) activeLen(t *testing.T) int {
	t.Helper()
	return len(f.inst.ActiveFunctionNames())
}

func (f *ttlFixture) waitExpiry(t *testing.T, kind string) capi.TTLExpiry {
	t.Helper()
	select {
	case e := <-f.expiries:
		if e.Kind != kind {
			t.Fatalf("expiry kind = %q, want %q", e.Kind, kind)
		}
		return e
	case <-time.After(10 * time.Second):
		t.Fatalf("no %q expiry delivered", kind)
		return capi.TTLExpiry{}
	}
}

// TestTTLManualReselectInterleavings is the interleaving table for
// ephemeral probes vs. manual control: explicit calls cancel pending
// reverts, overlapping TTLs coalesce onto the original base, and the two
// slots (select, sampling) never interfere.
func TestTTLManualReselectInterleavings(t *testing.T) {
	stride := func(n int) capi.SamplingOptions {
		return capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: n}}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, f *ttlFixture)
	}{
		{"explicit select before expiry cancels the revert", func(t *testing.T, f *ttlFixture) {
			if _, err := f.inst.ReconfigureTTL(f.narrow, time.Hour); err != nil {
				t.Fatal(err)
			}
			if st := f.inst.Status().TTL; !st.SelectPending || st.Scheduled != 1 {
				t.Fatalf("after ttl'd select: %+v", st)
			}
			if got := f.activeLen(t); got != f.narrow.IC.Len() {
				t.Fatalf("override not applied: %d active, want %d", got, f.narrow.IC.Len())
			}
			if _, err := f.inst.Reconfigure(f.wide); err != nil {
				t.Fatal(err)
			}
			st := f.inst.Status().TTL
			if st.SelectPending || st.Canceled != 1 || st.Expired != 0 {
				t.Fatalf("explicit select did not cancel the revert: %+v", st)
			}
			if got := f.activeLen(t); got != f.wide.IC.Len() {
				t.Fatalf("explicit selection lost: %d active, want %d", got, f.wide.IC.Len())
			}
		}},
		{"overlapping TTLs revert to the original base", func(t *testing.T, f *ttlFixture) {
			// First override: one-hour TTL, base = the wide Start selection.
			if _, err := f.inst.ReconfigureTTL(f.narrow, time.Hour); err != nil {
				t.Fatal(err)
			}
			// Second override lands while the first is pending: it must keep
			// the *original* base, not adopt the (narrow) override state.
			if _, err := f.inst.ReconfigureTTL(f.narrow, 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			e := f.waitExpiry(t, "select")
			if e.Report == nil {
				t.Fatal("select expiry carried no ReconfigReport")
			}
			if got := f.activeLen(t); got != f.wide.IC.Len() {
				t.Fatalf("reverted to %d active functions, want the original base %d", got, f.wide.IC.Len())
			}
			st := f.inst.Status().TTL
			if st.Scheduled != 2 || st.Expired != 1 || st.SelectPending {
				t.Fatalf("counters after coalesced expiry: %+v", st)
			}
		}},
		{"expired select revert restores the last explicit selection", func(t *testing.T, f *ttlFixture) {
			// The most recent *explicit* select becomes the base, not Start's.
			if _, err := f.inst.Reconfigure(f.narrow); err != nil {
				t.Fatal(err)
			}
			if _, err := f.inst.ReconfigureTTL(f.wide, 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if got := f.activeLen(t); got != f.wide.IC.Len() {
				t.Fatalf("override not applied: %d active", got)
			}
			f.waitExpiry(t, "select")
			if got := f.activeLen(t); got != f.narrow.IC.Len() {
				t.Fatalf("reverted to %d active, want the explicit narrow %d", got, f.narrow.IC.Len())
			}
		}},
		{"sampling TTL reverts to the last explicit table", func(t *testing.T, f *ttlFixture) {
			if err := f.inst.SetSampling(stride(4)); err != nil {
				t.Fatal(err)
			}
			if err := f.inst.SetSamplingTTL(stride(64), 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if got := f.inst.Sampling(); got.Default == nil || got.Default.Stride != 64 {
				t.Fatalf("override not applied: %+v", got.Default)
			}
			e := f.waitExpiry(t, "sampling")
			if e.Sampling == nil {
				t.Fatal("sampling expiry carried no snapshot")
			}
			if got := f.inst.Sampling(); got.Default == nil || got.Default.Stride != 4 {
				t.Fatalf("reverted table = %+v, want the explicit stride-4 default", got.Default)
			}
		}},
		{"sampling TTL with no explicit table reverts to full delivery", func(t *testing.T, f *ttlFixture) {
			if err := f.inst.SetSamplingTTL(stride(16), 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			f.waitExpiry(t, "sampling")
			if got := f.inst.Sampling(); got.Configured {
				t.Fatalf("revert left a table configured: %+v", got)
			}
		}},
		{"explicit sampling before expiry cancels the revert", func(t *testing.T, f *ttlFixture) {
			if err := f.inst.SetSamplingTTL(stride(64), time.Hour); err != nil {
				t.Fatal(err)
			}
			if st := f.inst.Status().TTL; !st.SamplingPending {
				t.Fatalf("no pending sampling revert: %+v", st)
			}
			if err := f.inst.SetSampling(stride(8)); err != nil {
				t.Fatal(err)
			}
			st := f.inst.Status().TTL
			if st.SamplingPending || st.Canceled != 1 {
				t.Fatalf("explicit table did not cancel the revert: %+v", st)
			}
			if got := f.inst.Sampling(); got.Default == nil || got.Default.Stride != 8 {
				t.Fatalf("explicit table lost: %+v", got.Default)
			}
		}},
		{"select and sampling TTLs expire independently", func(t *testing.T, f *ttlFixture) {
			if err := f.inst.SetSamplingTTL(stride(64), time.Hour); err != nil {
				t.Fatal(err)
			}
			if _, err := f.inst.ReconfigureTTL(f.narrow, 30*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			f.waitExpiry(t, "select")
			st := f.inst.Status().TTL
			if !st.SamplingPending || st.Expired != 1 {
				t.Fatalf("select expiry disturbed the sampling slot: %+v", st)
			}
			if got := f.inst.Sampling(); got.Default == nil || got.Default.Stride != 64 {
				t.Fatalf("sampling override lost: %+v", got.Default)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.run(t, newTTLFixture(t))
		})
	}
}

// TestReconfigureTTLNeedsBase: an instance started with PatchAll and never
// explicitly selected has no base snapshot an ephemeral probe could revert
// to — the TTL'd select is rejected with the sentinel (the control plane
// maps it to 409).
func TestReconfigureTTLNeedsBase(t *testing.T) {
	s := newQuickSession(t)
	inst, err := s.Start(nil, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	narrow, err := s.Select(quickCoarseSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.ReconfigureTTL(narrow, time.Minute); !errors.Is(err, capi.ErrNoTTLBase) {
		t.Fatalf("err = %v, want ErrNoTTLBase", err)
	}
	// An explicit select establishes the base; the TTL'd one then works.
	if _, err := inst.Reconfigure(narrow); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.ReconfigureTTL(narrow, time.Minute); err != nil {
		t.Fatalf("ttl'd select after explicit base: %v", err)
	}
	if st := inst.Status().TTL; !st.SelectPending {
		t.Fatalf("no pending revert: %+v", st)
	}
}

// TestTTLAfterCloseNeverFires: Close drops a pending revert undelivered,
// and a TTL'd call made after Close is refused and schedules nothing. Only
// wall time can show that something never fires, so the test waits many
// TTLs.
func TestTTLAfterCloseNeverFires(t *testing.T) {
	f := newTTLFixture(t)
	if _, err := f.inst.ReconfigureTTL(f.narrow, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f.inst.Close()
	_, err := f.inst.ReconfigureTTL(f.narrow, time.Millisecond)
	wantClosedErr(t, "ReconfigureTTL", err)
	wantClosedErr(t, "SetSamplingTTL", f.inst.SetSamplingTTL(capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 4}}, time.Millisecond))
	select {
	case e := <-f.expiries:
		t.Fatalf("a %q revert was delivered after Close", e.Kind)
	case <-time.After(200 * time.Millisecond):
	}
	if st := f.inst.Status().TTL; st.Expired != 0 {
		t.Fatalf("expired = %d after Close, want 0: %+v", st.Expired, st)
	}
}

// TestCloseWaitsForInFlightRevert: a revert that is being delivered when
// Close is called finishes before Close returns. The notify callback
// holds the revert until the test releases it.
func TestCloseWaitsForInFlightRevert(t *testing.T) {
	f := newTTLFixture(t)
	entered, release := make(chan struct{}), make(chan struct{})
	f.inst.SetTTLNotify(func(capi.TTLExpiry) {
		close(entered)
		<-release
	})
	if _, err := f.inst.ReconfigureTTL(f.narrow, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no revert delivered")
	}
	closed := make(chan struct{})
	go func() {
		f.inst.Close()
		close(closed)
	}()
	// Close returning early is the failure; a short window shows it.
	select {
	case <-closed:
		t.Fatal("Close returned while a revert was still being delivered")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the revert finished")
	}
}
