package capi_test

import (
	"math"
	"strings"
	"testing"
	"time"

	capi "capi"
)

// wantClosedErr fails unless err is the refusal of a call made after Close.
func wantClosedErr(t *testing.T, call string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "Close") {
		t.Errorf("%s after Close: err = %v, want an error naming Close", call, err)
	}
}

// TestAsyncRunAfterCloseFails: Close stops the async consumer pool, so a
// phase run afterwards could never drain its events. Run refuses instead;
// the test bounds its own wait, so a hang fails it rather than the binary.
func TestAsyncRunAfterCloseFails(t *testing.T) {
	s := newQuickSession(t)
	inst, err := s.Start(nil, capi.RunOptions{PatchAll: true, Async: true, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	done := make(chan error, 1)
	go func() {
		_, err := inst.Run()
		done <- err
	}()
	select {
	case err := <-done:
		wantClosedErr(t, "Run", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Run after Close did not return within 5s")
	}
}

// TestRequestContextAfterCloseDispatchesNothing: a request context taken
// before Close used to append to an async ring whose consumer had stopped,
// so the next DrainPipeline never returned. Close removes the handler, so
// the context dispatches nothing, and no new context is handed out.
func TestRequestContextAfterCloseDispatchesNothing(t *testing.T) {
	s := newQuickSession(t)
	inst, err := s.Start(nil, capi.RunOptions{
		PatchAll: true, Async: true, Ranks: 1, HTTPWorkers: 2,
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}}, // counts every enter
	})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := inst.ResolveFunctionName(inst.ActiveFunctionNames()[0])
	if !ok {
		t.Fatal("active function does not resolve")
	}
	rcs, err := inst.NewRequestContexts(1)
	if err != nil {
		t.Fatal(err)
	}
	pair := func() {
		rcs[0].Enter(id)
		rcs[0].Advance(1000)
		rcs[0].Exit(id)
	}
	pair()
	inst.Close()
	_, err = inst.NewRequestContexts(1)
	wantClosedErr(t, "NewRequestContexts", err)
	done := make(chan struct{})
	go func() {
		pair()
		inst.DrainPipeline()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DrainPipeline after a post-Close event did not return within 5s")
	}
	inst.FlushSampling()
	if c := inst.Sampling().Counters; c.Enters != 1 {
		t.Errorf("%d enters counted, want 1: the one before Close", c.Enters)
	}
}

// TestControlCallsAfterCloseFail: every call that would change a closed
// instance is refused and changes nothing. Before, a TTL'd select after
// Close applied its override and scheduled no revert, so it stayed.
func TestControlCallsAfterCloseFail(t *testing.T) {
	f := newTTLFixture(t)
	before := f.activeLen(t)
	f.inst.Close()
	f.inst.Close() // idempotent
	stride4 := capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 4}}

	_, err := f.inst.Reconfigure(f.narrow)
	wantClosedErr(t, "Reconfigure", err)
	_, err = f.inst.ReconfigureTTL(f.narrow, time.Minute)
	wantClosedErr(t, "ReconfigureTTL", err)
	wantClosedErr(t, "SetSampling", f.inst.SetSampling(stride4))
	wantClosedErr(t, "SetSamplingTTL", f.inst.SetSamplingTTL(stride4, time.Minute))
	_, err = f.inst.SetBackends([]string{"scorep"})
	wantClosedErr(t, "SetBackends", err)
	_, err = f.inst.Run()
	wantClosedErr(t, "Run", err)

	if got := f.activeLen(t); got != before {
		t.Errorf("active functions %d after Close, want %d", got, before)
	}
	st := f.inst.Status()
	if st.TTL.Scheduled != 0 || st.Runs != 0 || st.Sampling != nil {
		t.Errorf("a refused call changed the instance: ttl %+v, runs %d, sampling %v", st.TTL, st.Runs, st.Sampling)
	}
	if len(st.Backends) != 1 || st.Backends[0] != "talp" {
		t.Errorf("backends %v after Close, want [talp]", st.Backends)
	}
}

// TestStartNeedsSelection: an instance always has a runtime, so Start
// refuses a call that would patch nothing.
func TestStartNeedsSelection(t *testing.T) {
	s := newQuickSession(t)
	for _, sel := range []*capi.Selection{nil, {}} {
		if inst, err := s.Start(sel, capi.RunOptions{}); err == nil {
			inst.Close()
			t.Errorf("Start(%v, RunOptions{}) accepted an empty selection", sel)
		}
	}
}

// TestBaselinesExactBits pins the two baselines to the virtual nanosecond:
// the "xray inactive" run (Session.Run without a selection) and the
// vanilla build (Session.RunVanilla), per app and rank count. The other
// baseline tests allow 1 %; these values must not move at all.
func TestBaselinesExactBits(t *testing.T) {
	want := map[string][3][2]uint64{ // app → ranks 1, 2, 4 → {inactive, vanilla}
		"quickstart": {
			{0x3f9f7ce55048ba25, 0x3f9f7ccd2787fbaf},
			{0x3f9f878338fc6d46, 0x3f9f876b103baecf},
			{0x3f9f922121b02066, 0x3f9f9208f8ef61f0},
		},
		"lulesh": {
			{0x40407e098b803784, 0x40407e08ad15d5de},
			{0x40407e0c97a43235, 0x40407e0bb939d08f},
			{0x40407e0fa3c82ce6, 0x40407e0ec55dcb40},
		},
		"openfoam": {
			{0x4044f0e32f313d5c, 0x4044f0dfe6404c87},
			{0x4044f0ecb846fb34, 0x4044f0e96f560a5f},
			{0x4044f0f6415cb90b, 0x4044f0f2f86bc836},
		},
	}
	for app, rows := range want {
		s, err := capi.NewAppSession(app, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for k, ranks := range []int{1, 2, 4} {
			res, err := s.Run(nil, capi.RunOptions{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			van, err := s.RunVanilla(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if res.InitSeconds != -1 {
				t.Errorf("%s/%d: inactive InitSeconds = %v, want -1", app, ranks, res.InitSeconds)
			}
			got := [2]uint64{math.Float64bits(res.TotalSeconds), math.Float64bits(van)}
			if got != rows[k] {
				t.Errorf("%s/%d: {inactive, vanilla} bits = %#x, want %#x", app, ranks, got, rows[k])
			}
		}
	}
}
