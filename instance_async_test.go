package capi_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	capi "capi"
	"capi/internal/prog"
)

// slowCountBackend is a registered backend that counts events and sleeps on
// every delivery — slow enough that an async run's rings are provably
// non-empty when the engine's ranks join, which is what the Run flush
// barrier exists for. A process-wide singleton, like race-count, so counts
// survive backend-set swaps.
type slowCountBackend struct {
	enters, exits atomic.Int64
	delay         atomic.Int64 // nanoseconds per event
}

func (b *slowCountBackend) Name() string { return "slow-count" }
func (b *slowCountBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {
	if d := b.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	b.enters.Add(1)
}
func (b *slowCountBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {
	if d := b.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	b.exits.Add(1)
}
func (b *slowCountBackend) InitCost(int) int64           { return 0 }
func (b *slowCountBackend) StartPhase(*capi.World) error { return nil }
func (b *slowCountBackend) Report() capi.Report          { return nil }

var slowCounter = &slowCountBackend{}

func init() {
	capi.RegisterBackend("slow-count", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return slowCounter, nil
	})
}

// TestAsyncAdaptIncompatible: the overhead-budget controller counts each
// epoch's events at an MPI collective, and replayed pipeline events reach
// it after the collective that should have counted them, so the
// combination is rejected up front instead of silently mis-adapting.
func TestAsyncAdaptIncompatible(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Start(sel, capi.RunOptions{
		Backends: []string{"talp"}, Ranks: 2,
		Async: true, Adapt: &capi.AdaptOptions{Budget: 0.01},
	})
	if err == nil {
		t.Fatal("Async+Adapt accepted")
	}
	// SLO mode works with the pipeline, but may not be retuned into
	// budget mode.
	inst, err := s.Start(sel, capi.RunOptions{
		Backends: []string{"talp"}, Ranks: 2,
		Async: true, Adapt: &capi.AdaptOptions{SLOTargetP99Ns: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Retune(capi.AdaptOptions{SLOTargetP99Ns: -1}); err == nil {
		t.Fatal("async instance retuned into budget mode")
	}
}

// TestInstanceAsyncRunFlushBarrier is the phase-end flush-ordering
// regression test: Instance.Run must drain the async pipeline after the
// engine's ranks join and before RunResult is captured. The backend sleeps
// per event, so at join time the rings still hold queued events — without
// the barrier, the counting backend's totals (and every backend report)
// would be short of the sampler's Delivered count at Run return.
func TestInstanceAsyncRunFlushBarrier(t *testing.T) {
	slowCounter.enters.Store(0)
	slowCounter.exits.Store(0)
	slowCounter.delay.Store(int64(50 * time.Microsecond))
	defer slowCounter.delay.Store(0)

	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{
		Backends: []string{"slow-count"},
		Ranks:    2,
		Async:    true,
		// Stride 1: the sampler counts every event and delivers every event,
		// giving the independent expected count for the assertion below.
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if !inst.Status().Async {
		t.Fatal("pipeline not attached")
	}

	res, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil || res.Sampling.Counters.Enters == 0 {
		t.Fatalf("no sampling counters captured: %+v", res.Sampling)
	}
	if res.DroppedAsync != 0 {
		t.Fatalf("default ring dropped %d pairs on a quickstart phase", res.DroppedAsync)
	}
	// The exact reconciliation, read immediately at Run return: every enter
	// the sampler delivered has already landed in the backend. A missing
	// drain barrier loses the tail of the phase still queued in the rings.
	c := res.Sampling.Counters
	if got := slowCounter.enters.Load(); got != c.Delivered {
		t.Fatalf("at Run return the backend saw %d enters, sampler delivered %d — phase-end flush barrier broken",
			got, c.Delivered)
	}
	if d := inst.Status().PipelineDepth; d != 0 {
		t.Fatalf("pipeline depth %d at Run return, want 0", d)
	}
}

// TestInstanceAsyncConservationUnderRace is the async stress test: phases
// execute through the asynchronous pipeline while four goroutines hammer
// the instance — live sampling-rate changes, re-selection, backend-set
// swaps and status scrapes. Run with -race.
//
// The acceptance invariant extends the inline one with back-pressure:
//
//	enters == delivered + sampled-out + suppressed + collapsed
//	backend enters == delivered − droppedAsync
//
// — every event is delivered, sampled out, suppressed, collapsed or
// dropped by the bounded ring, with nothing unaccounted.
func TestInstanceAsyncConservationUnderRace(t *testing.T) {
	raceCounter.enters.Store(0)
	raceCounter.exits.Store(0)
	s, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 3000}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.Select(quickCoarseSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(wide, capi.RunOptions{
		Backends: []string{"race-count"},
		Ranks:    2,
		Async:    true,
		// A small ring keeps the back-pressure path itself under stress.
		AsyncBuf: 256,
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // live rate changes
		defer wg.Done()
		tables := []capi.SamplingOptions{
			{Default: &capi.SamplingPolicy{Stride: 1}},
			{Default: &capi.SamplingPolicy{Stride: 8}},
			{Default: &capi.SamplingPolicy{Stride: 64, MinDurationNs: 500}},
			{Default: &capi.SamplingPolicy{MinDurationNs: 2000, CollapseRedundant: true}},
			{}, // clear: deliver everything, keep accounting
			{Default: &capi.SamplingPolicy{Stride: 3}},
		}
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			if err := inst.SetSampling(tables[j%len(tables)]); err != nil {
				t.Errorf("SetSampling: %v", err)
				return
			}
		}
	}()
	go func() { // live re-selection (Reconfigure drains before synthetic exits)
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			sel := narrow
			if j%2 == 1 {
				sel = wide
			}
			if _, err := inst.Reconfigure(sel); err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()
	go func() { // live backend-set swaps (SwapBackend drains first)
		defer wg.Done()
		sets := [][]string{{"race-count"}, {"race-count", "extrae"}}
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := inst.SetBackends(sets[j%2]); err != nil {
				t.Errorf("set backends: %v", err)
				return
			}
		}
	}()
	go func() { // scrapes, including the new pipeline observability
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := inst.Status()
			if !st.Async {
				t.Error("status lost the async flag")
				return
			}
			inst.DroppedAsync()
			inst.Sampling()
			inst.Reports()
		}
	}()

	for phase := 0; phase < 3; phase++ {
		if _, err := inst.Run(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	st := inst.Status()
	if st.Runs != 3 || st.DroppedUnpatched != 0 {
		t.Fatalf("final status = %+v", st)
	}
	snap := inst.Sampling()
	c := snap.Counters
	if c.Enters == 0 || c.SampledEvents == 0 {
		t.Fatalf("stress run never sampled: %+v", c)
	}
	// (a) The sampler's conservation identity survives asynchrony exactly.
	if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
		t.Fatalf("conservation broken: delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
			c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
	}
	// (b) Zero unaccounted events across the pipeline: of the enters the
	// sampler admitted, exactly the back-pressure-dropped pairs are missing
	// from the independent backend count — no more, no fewer.
	dropped := inst.DroppedAsync()
	if got, want := raceCounter.enters.Load(), c.Delivered-dropped; got != want {
		t.Fatalf("backend saw %d enters; sampler delivered %d, ring dropped %d pairs — %d unaccounted",
			got, c.Delivered, dropped, want-got)
	}
	if st.DroppedAsync != dropped {
		t.Fatalf("status reports %d dropped pairs, accessor %d", st.DroppedAsync, dropped)
	}
	if raceCounter.exits.Load() == 0 {
		t.Fatal("no exits delivered at all")
	}
}

// TestSessionRunLeavesNoGoroutines: Session.Run closes the instance it
// starts, so async runs leave no consumer goroutine polling behind.
func TestSessionRunLeavesNoGoroutines(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := s.Run(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2, Async: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines of earlier tests may still be winding down: wait for the
	// count to settle at or below the baseline instead of reading it once.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 5 async runs, %d before", n, base)
	}
}

// TestDeepChainAsyncBalanced runs a 71-frame call chain (main → f1 → … →
// f70), every frame instrumented, through the async pipeline: the ring's
// pairing stack must carry every frame's decision past its inline 64, so
// extrae, Score-P and TALP each see every enter closed.
func TestDeepChainAsyncBalanced(t *testing.T) {
	const frames = 71
	p := prog.New("chain", "main")
	p.MustAddUnit("chain.exe", prog.Executable)
	p.MustAddUnit("libmpi.so.40", prog.SystemLibrary)
	for _, name := range []string{"MPI_Init", "MPI_Finalize"} {
		p.MustAddFunc(&prog.Function{Name: name, Unit: "libmpi.so.40", TU: "mpi.h", Statements: 6, SystemHeader: true})
	}
	for k := 0; k < frames; k++ {
		name, ops := "main", []prog.Op{prog.MPICall("MPI_Init", 0), prog.Work(100)}
		if k > 0 {
			name, ops = fmt.Sprintf("f%d", k), []prog.Op{prog.Work(100)}
		}
		if k < frames-1 {
			ops = append(ops, prog.Call(fmt.Sprintf("f%d", k+1), 1))
		}
		if k == 0 {
			ops = append(ops, prog.MPICall("MPI_Finalize", 0))
		}
		p.MustAddFunc(&prog.Function{Name: name, Unit: "chain.exe", Statements: 30, Ops: ops})
	}
	s, err := capi.NewSession(p, capi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil, capi.RunOptions{PatchAll: true, Async: true, Ranks: 1,
		Backends: []string{"extrae", "scorep", "talp"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := traceOf(res)
	if len(tr.Ranks) != 1 || tr.Ranks[0].Enters != frames || tr.Ranks[0].Exits != frames {
		t.Fatalf("extrae ranks = %+v, want %d enters and %d exits", tr.Ranks, frames, frames)
	}
	// A region closes, and counts its time, only at its exit: every frame
	// of the chain must have spent at least its own work.
	prof := profileOf(res)
	for k := 0; k < frames; k++ {
		name := "main"
		if k > 0 {
			name = fmt.Sprintf("f%d", k)
		}
		if r := prof.Region(name); r == nil || r.Visits != 1 || r.Inclusive < int64(100*(frames-k)) {
			t.Fatalf("scorep region %s = %+v, want 1 visit of at least %d ns", name, r, 100*(frames-k))
		}
	}
	// main enters before MPI_Init, so TALP registers f1 … f70 beside its
	// own MPI Execution region.
	talp := talpOf(res)
	if len(talp.Regions) != frames {
		t.Fatalf("talp reports %d regions, want %d", len(talp.Regions), frames)
	}
	for _, r := range talp.Regions {
		if r.Visits != 1 || r.Elapsed <= 0 {
			t.Fatalf("talp region %s = %d visits, %d ns elapsed, want 1 closed visit", r.Name, r.Visits, r.Elapsed)
		}
	}
}
