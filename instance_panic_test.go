package capi_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	capi "capi"
)

// panicBackend panics on every event delivery — before any internal
// accounting — so a successful delivery to this backend is impossible:
// everything the chain hands it must come back out as DroppedPanicked.
type panicBackend struct{}

func (panicBackend) Name() string                                     { return "test-panic" }
func (panicBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) { panic("test-panic: enter") }
func (panicBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc)  { panic("test-panic: exit") }
func (panicBackend) InitCost(int) int64                               { return 0 }
func (panicBackend) StartPhase(*capi.World) error                     { return nil }
func (panicBackend) Report() capi.Report {
	return capi.JSONReport{ReportKind: "panic", Value: "should never be scraped after a trip"}
}

func init() {
	capi.RegisterBackend("test-panic", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return panicBackend{}, nil
	})
}

// TestPanickingBackendPhaseSurvives is the fault-injection matrix: a
// backend that panics on every single event runs alongside talp, inline
// and async, with the breaker armed and disarmed. In every cell the host
// phase must run to completion (twice), the healthy backend must keep
// reporting, and the conservation identity must stay exact:
//
//	enters == delivered + sampledOut + suppressed + collapsed + droppedAsync
//
// with, for the panicking backend, droppedPanicked == delivered — not one
// event ever reached it, and not one went unaccounted. Run with -race: a
// status hammer runs concurrently and the mid-phase auto-detach exercises
// the detach against live dispatch.
func TestPanickingBackendPhaseSurvives(t *testing.T) {
	cases := []struct {
		name       string
		async      bool
		panicLimit int // 0 = default (trips), negative = barrier only
	}{
		{"inline-trip", false, 0},
		{"async-trip", true, 0},
		{"inline-no-trip", false, -1},
		{"async-no-trip", true, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newQuickSession(t)
			sel, err := s.Select(quickSpec)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := s.Start(sel, capi.RunOptions{
				Backends:   []string{"talp", "test-panic"},
				Ranks:      2,
				Async:      c.async,
				PanicLimit: c.panicLimit,
				Sampling:   &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(inst.Close)

			// Status hammer: scrapes the breaker/TTL/sampling snapshots while
			// the phase dispatches and the trip goroutine swaps the chain.
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					st := inst.Status()
					if st.Patched == 0 {
						t.Error("status lost instrumentation mid-phase")
						return
					}
					inst.Reports()
				}
			}()

			if _, err := inst.Run(); err != nil {
				t.Fatalf("first phase failed: %v", err)
			}
			if c.panicLimit == 0 {
				// The trip fires on its own goroutine; wait for the detach.
				deadline := time.Now().Add(10 * time.Second)
				for {
					st := inst.Status()
					if slices.Contains(st.DetachedBackends, "test-panic") {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("breaker never detached test-panic: %+v", st.Breaker)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// Second phase after the (possible) detach: the tripped guard keeps
			// the accounting exact and the healthy backend keeps measuring.
			res, err := inst.Run()
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatalf("second phase failed: %v", err)
			}
			if res.Reports["talp"] == nil {
				t.Fatal("healthy backend stopped reporting")
			}

			st := inst.Status()
			if st.Sampling == nil {
				t.Fatal("no sampling counters")
			}
			cnt := st.Sampling.Counters
			if cnt.Enters == 0 || cnt.Delivered == 0 {
				t.Fatalf("degenerate phase: %+v", cnt)
			}
			if got := cnt.Delivered + cnt.SampledEvents + cnt.SuppressedPairs + cnt.CollapsedCalls + st.DroppedAsync; got != cnt.Enters {
				t.Fatalf("conservation broken: enters %d != delivered %d + sampledOut %d + suppressed %d + collapsed %d + droppedAsync %d",
					cnt.Enters, cnt.Delivered, cnt.SampledEvents, cnt.SuppressedPairs, cnt.CollapsedCalls, st.DroppedAsync)
			}
			// Nothing was ever delivered to the panicking backend, and every
			// enter that reached its guard was counted.
			if st.DroppedPanicked != cnt.Delivered {
				t.Fatalf("droppedPanicked = %d, want every delivered enter (%d)", st.DroppedPanicked, cnt.Delivered)
			}
			var bs *capi.BreakerStatus
			for i := range st.Breaker {
				if st.Breaker[i].Backend == "test-panic" {
					bs = &st.Breaker[i]
				}
			}
			if bs == nil {
				t.Fatalf("no breaker stats for test-panic: %+v", st.Breaker)
			}
			if bs.Panics == 0 || bs.LastPanic == "" {
				t.Fatalf("breaker stats = %+v", bs)
			}
			if c.panicLimit == 0 {
				if !bs.Tripped || !slices.Contains(st.DetachedBackends, "test-panic") {
					t.Fatalf("breaker did not trip+detach: %+v detached=%v", bs, st.DetachedBackends)
				}
				if res.Reports["test-panic"] != nil {
					t.Fatal("detached backend still in the report envelope")
				}
			} else {
				if bs.Tripped || len(st.DetachedBackends) != 0 {
					t.Fatalf("disarmed breaker tripped: %+v detached=%v", bs, st.DetachedBackends)
				}
			}
		})
	}
}

// TestPanickingBackendOnAdaptiveInstance: the breaker detaches a tripping
// backend from an adaptive instance's chain exactly as from any other, the
// controller keeps deciding on the rebuilt chain, and the conservation
// identity stays exact.
func TestPanickingBackendOnAdaptiveInstance(t *testing.T) {
	s := newQuickSession(t)
	inst, err := s.Start(nil, capi.RunOptions{
		Backends: []string{"talp", "test-panic"},
		Ranks:    2,
		PatchAll: true,
		Adapt:    &capi.AdaptOptions{Budget: 0.0001},
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	trips := make(chan capi.BreakerEvent, 1)
	inst.SetBreakerNotify(func(ev capi.BreakerEvent) { trips <- ev })

	res1, err := inst.Run()
	if err != nil {
		t.Fatalf("first phase failed: %v", err)
	}
	select {
	case ev := <-trips:
		if ev.Backend != "test-panic" || !ev.Detached {
			t.Fatalf("breaker event = %+v, want test-panic detached", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("breaker never tripped")
	}
	res2, err := inst.Run()
	if err != nil {
		t.Fatalf("second phase failed: %v", err)
	}
	if len(res2.AdaptEpochs) <= len(res1.AdaptEpochs) || res2.Reports["talp"] == nil {
		t.Fatalf("after the detach: epochs %d → %d, reports %v", len(res1.AdaptEpochs), len(res2.AdaptEpochs), res2.Backends)
	}

	st := inst.Status()
	cnt := st.Sampling.Counters
	if got := cnt.Delivered + cnt.SampledEvents + cnt.SuppressedPairs + cnt.CollapsedCalls; cnt.Enters == 0 || got != cnt.Enters {
		t.Fatalf("conservation broken: %+v", cnt)
	}
	if st.DroppedPanicked != cnt.Delivered {
		t.Fatalf("droppedPanicked = %d, want every delivered enter (%d)", st.DroppedPanicked, cnt.Delivered)
	}
}

// TestPanickingStartPhaseDegrades: a StartPhase panic is recovered into
// the same breaker (the phase proceeds without the backend's phase hook)
// and a Report panic degrades to a missing envelope entry, not a crash.
func TestPanickingStartPhaseDegrades(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	// PanicLimit 1: the very first recovered panic trips the breaker.
	inst, err := s.Start(sel, capi.RunOptions{
		Backends:   []string{"talp", "test-lifecycle-panic"},
		Ranks:      2,
		PanicLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	res, err := inst.Run()
	if err != nil {
		t.Fatalf("phase failed: %v", err)
	}
	if res.Reports["talp"] == nil {
		t.Fatal("healthy backend stopped reporting")
	}
	if res.Reports["test-lifecycle-panic"] != nil {
		t.Fatal("panicking Report produced an envelope entry")
	}
}

// lifecyclePanicBackend delivers events fine but panics at the phase
// boundaries (Report), proving the instance-level half of the barrier.
type lifecyclePanicBackend struct{}

func (lifecyclePanicBackend) Name() string                                     { return "test-lifecycle-panic" }
func (lifecyclePanicBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {}
func (lifecyclePanicBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc)  {}
func (lifecyclePanicBackend) InitCost(int) int64                               { return 0 }
func (lifecyclePanicBackend) StartPhase(*capi.World) error                     { return nil }
func (lifecyclePanicBackend) Report() capi.Report                              { panic("test: report") }

func init() {
	capi.RegisterBackend("test-lifecycle-panic", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return lifecyclePanicBackend{}, nil
	})
}
