package dyncapi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/xray"
)

// asyncLogBackend counts delivered events atomically (several shard
// consumers may deliver concurrently) and records what each delivery
// observed from its context — the replayed clock and MPI state — so tests
// can assert the pipeline reproduces dispatch-time state exactly.
type asyncLogBackend struct {
	enters, exits atomic.Int64
	delayPerEvent time.Duration // simulated backend cost, to build queue depth

	mu  sync.Mutex
	log []asyncLogEntry
}

type asyncLogEntry struct {
	rank      int
	id        int32
	kind      xray.EntryType
	timeNs    int64
	mpiInit   bool
	synthetic bool
}

func (b *asyncLogBackend) Name() string       { return "async-log" }
func (b *asyncLogBackend) InitCost(int) int64 { return 0 }
func (b *asyncLogBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.record(tc, fn, xray.Entry)
	b.enters.Add(1)
}
func (b *asyncLogBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.record(tc, fn, xray.Exit)
	b.exits.Add(1)
}

func (b *asyncLogBackend) record(tc xray.ThreadCtx, fn *ResolvedFunc, kind xray.EntryType) {
	if b.delayPerEvent > 0 {
		time.Sleep(b.delayPerEvent)
	}
	init := false
	if mr, ok := tc.(mpiRanker); ok {
		if r := mr.MPIRank(); r != nil {
			init = r.Initialized()
		}
	}
	b.mu.Lock()
	b.log = append(b.log, asyncLogEntry{
		rank: tc.RankID(), id: fn.PackedID, kind: kind,
		timeNs: tc.Clock().Now(), mpiInit: init,
	})
	b.mu.Unlock()
}

func (b *asyncLogBackend) entries() []asyncLogEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]asyncLogEntry(nil), b.log...)
}

// asyncDeselBackend adds the Deselector hook: it closes dangling enters it
// has seen for the function and appends a synthetic-exit marker, so tests
// can assert the drain barrier ordered every queued real event before the
// synthetic closure.
type asyncDeselBackend struct {
	asyncLogBackend
}

func (b *asyncDeselBackend) OnDeselect(fn *ResolvedFunc) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	open := 0
	for _, e := range b.log {
		if e.id != fn.PackedID || e.synthetic {
			continue
		}
		if e.kind == xray.Entry {
			open++
		} else {
			open--
		}
	}
	if open > 0 {
		b.log = append(b.log, asyncLogEntry{id: fn.PackedID, kind: xray.Exit, synthetic: true})
	}
	return open
}

// asyncSetup patches kernel+dso_fn under the given backend with the async
// pipeline attached and returns an initialized rank-0 context.
func asyncSetup(t *testing.T, back Backend, buf int) (*Runtime, *xray.Runtime, *fakeCtx, int32, int32) {
	t.Helper()
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, ic.New("app", "test", []string{"kernel", "dso_fn"}), back,
		Options{Ranks: 1, Async: true, AsyncBuf: buf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	world, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r := world.Rank(0)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	return rt, xr, &fakeCtx{rank: r}, packedOf(t, b, xr, proc, "kernel"), packedOf(t, b, xr, proc, "dso_fn")
}

// TestAsyncPipelineDeliversEverything: every dispatched pair reaches the
// backend after a drain barrier, with per-rank order, non-decreasing
// replayed timestamps and the dispatch-time MPI state intact.
func TestAsyncPipelineDeliversEverything(t *testing.T) {
	back := &asyncLogBackend{}
	rt, xr, tc, kernel, dso := asyncSetup(t, back, 0)
	if !rt.Snapshot().Async {
		t.Fatal("pipeline not attached")
	}
	const pairs = 500
	ids := []int32{kernel, dso}
	for i := 0; i < pairs; i++ {
		id := ids[i%2]
		xr.Dispatch(tc, id, xray.Entry)
		tc.Clock().Advance(10)
		xr.Dispatch(tc, id, xray.Exit)
		tc.Clock().Advance(10)
	}
	rt.DrainPipeline()
	if e, x := back.enters.Load(), back.exits.Load(); e != pairs || x != pairs {
		t.Fatalf("delivered %d enters / %d exits, want %d each", e, x, pairs)
	}
	if d := rt.Snapshot().PipelineDepth; d != 0 {
		t.Fatalf("depth %d after drain, want 0", d)
	}
	if n := rt.DroppedAsync(); n != 0 {
		t.Fatalf("%d pairs dropped with the default ring", n)
	}
	last := int64(-1)
	for i, e := range back.entries() {
		if e.rank != 0 {
			t.Fatalf("entry %d replayed on rank %d, want 0", i, e.rank)
		}
		if e.timeNs < last {
			t.Fatalf("entry %d: replayed clock went backwards (%d after %d)", i, e.timeNs, last)
		}
		last = e.timeNs
		if !e.mpiInit {
			t.Fatalf("entry %d lost the dispatch-time MPI-initialized state", i)
		}
	}
	snap := rt.Snapshot()
	if !snap.Async || snap.DroppedAsync != 0 {
		t.Fatalf("snapshot = %+v, want Async with zero drops", snap)
	}
	rt.Close()
	rt.Close() // idempotent
}

// TestAsyncBareContextReplay: a context without an MPI rank replays through
// the rankless replay context — the nil-rank guard and the pinned bare
// clock path.
func TestAsyncBareContextReplay(t *testing.T) {
	back := &asyncLogBackend{}
	rt, xr, _, kernel, _ := asyncSetup(t, back, 0)
	bare := &fakeCtx{} // nil rank: MPIRank() returns nil
	bare.clk.Jump(1000)
	xr.Dispatch(bare, kernel, xray.Entry)
	bare.clk.Jump(2000)
	xr.Dispatch(bare, kernel, xray.Exit)
	rt.DrainPipeline()
	log := back.entries()
	if len(log) != 2 {
		t.Fatalf("delivered %d events, want 2", len(log))
	}
	for i, e := range log {
		if e.mpiInit {
			t.Fatalf("entry %d claims MPI state from a rankless context", i)
		}
	}
	if log[0].timeNs >= log[1].timeNs {
		t.Fatalf("replayed clocks %d, %d not increasing", log[0].timeNs, log[1].timeNs)
	}
}

// TestAsyncUnmatchedExitStillDelivered: an exit arriving with no recorded
// enter (sled patched mid-call) takes the depth-0 append path and is
// delivered, not silently lost.
func TestAsyncUnmatchedExitStillDelivered(t *testing.T) {
	back := &asyncLogBackend{}
	rt, xr, tc, kernel, _ := asyncSetup(t, back, 0)
	for i := 0; i < 3; i++ {
		xr.Dispatch(tc, kernel, xray.Exit)
	}
	rt.DrainPipeline()
	if x := back.exits.Load(); x != 3 {
		t.Fatalf("delivered %d unmatched exits, want 3", x)
	}
}

// TestAsyncBackPressureDropsWholePairs: with a tiny ring and a slow
// backend, admission rejects pairs whole — the backend stays balanced, and
// delivered + dropped accounts for every dispatched pair exactly.
func TestAsyncBackPressureDropsWholePairs(t *testing.T) {
	back := &asyncLogBackend{delayPerEvent: 200 * time.Microsecond}
	rt, xr, tc, kernel, _ := asyncSetup(t, back, 8)
	const pairs = 100
	for i := 0; i < pairs; i++ {
		xr.Dispatch(tc, kernel, xray.Entry)
		xr.Dispatch(tc, kernel, xray.Exit)
	}
	rt.DrainPipeline()
	dropped := rt.DroppedAsync()
	if dropped == 0 {
		t.Fatal("an 8-slot ring against a 200µs/event backend never dropped")
	}
	e, x := back.enters.Load(), back.exits.Load()
	if e != x {
		t.Fatalf("backend unbalanced: %d enters, %d exits — pairs must drop whole", e, x)
	}
	if e+dropped != pairs {
		t.Fatalf("conservation broken: %d delivered + %d dropped != %d dispatched pairs", e, dropped, pairs)
	}
	snap := rt.Snapshot()
	if snap.DroppedAsync != dropped {
		t.Fatalf("snapshot drops %d, accessor %d", snap.DroppedAsync, dropped)
	}
}

// TestAsyncSwapBackendDrainsFirst: every event queued before SwapBackend is
// delivered to the old backend before the new one is published.
func TestAsyncSwapBackendDrainsFirst(t *testing.T) {
	old := &asyncLogBackend{delayPerEvent: 50 * time.Microsecond}
	rt, xr, tc, kernel, _ := asyncSetup(t, old, 0)
	const pairs = 50
	for i := 0; i < pairs; i++ {
		xr.Dispatch(tc, kernel, xray.Entry)
		xr.Dispatch(tc, kernel, xray.Exit)
	}
	fresh := &asyncLogBackend{}
	if _, err := rt.SwapBackend(fresh); err != nil {
		t.Fatal(err)
	}
	// The swap's drain barrier means the old backend has already seen every
	// queued event — no DrainPipeline call needed here.
	if e, x := old.enters.Load(), old.exits.Load(); e != pairs || x != pairs {
		t.Fatalf("old backend saw %d/%d events at swap time, want %d/%d", e, x, pairs, pairs)
	}
	for i := 0; i < pairs; i++ {
		xr.Dispatch(tc, kernel, xray.Entry)
		xr.Dispatch(tc, kernel, xray.Exit)
	}
	rt.DrainPipeline()
	if e := fresh.enters.Load(); e != pairs {
		t.Fatalf("new backend saw %d enters, want %d", e, pairs)
	}
	if e := old.enters.Load(); e != pairs {
		t.Fatalf("old backend kept receiving after the swap: %d enters", e)
	}
}

// TestAsyncReconfigureOrdersSyntheticExitsAfterDrain: a deselected
// function's queued real events reach the backend before its synthetic
// exit — the regression this PR's Reconfigure drain barrier exists for.
// Without the barrier the backend would see no dangling enter at
// OnDeselect time (it is still queued), leak the frame, and the queued
// enter would arrive after the closure.
func TestAsyncReconfigureOrdersSyntheticExitsAfterDrain(t *testing.T) {
	back := &asyncDeselBackend{asyncLogBackend{delayPerEvent: 100 * time.Microsecond}}
	rt, xr, tc, kernel, dso := asyncSetup(t, back, 0)
	// Build queue depth, then leave kernel open.
	for i := 0; i < 20; i++ {
		xr.Dispatch(tc, dso, xray.Entry)
		xr.Dispatch(tc, dso, xray.Exit)
	}
	xr.Dispatch(tc, kernel, xray.Entry)
	rep, err := rt.Reconfigure(ic.New("app", "test", []string{"dso_fn"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyntheticExits != 1 {
		t.Fatalf("synthetic exits = %d, want 1 (the dangling kernel enter)", rep.SyntheticExits)
	}
	log := back.entries()
	realEnter, synthExit := -1, -1
	for i, e := range log {
		if e.id != kernel {
			continue
		}
		if e.synthetic {
			synthExit = i
		} else if e.kind == xray.Entry {
			realEnter = i
		}
	}
	if realEnter < 0 || synthExit < 0 {
		t.Fatalf("kernel enter at %d, synthetic exit at %d — both must be delivered", realEnter, synthExit)
	}
	if realEnter > synthExit {
		t.Fatalf("synthetic exit (%d) delivered before the queued real enter (%d)", synthExit, realEnter)
	}
}

// TestDispatchAfterCloseReachesNothing: Close removes the handler, so an
// event dispatched afterwards reaches no backend, inline or async, and a
// drain after it returns (it used to wait forever on a ring whose consumer
// had stopped).
func TestDispatchAfterCloseReachesNothing(t *testing.T) {
	for _, async := range []bool{false, true} {
		back := &asyncLogBackend{}
		b := buildProg(t)
		proc, xr := setup(t, b)
		rt, err := New(proc, xr, ic.New("app", "test", []string{"kernel"}), back, Options{Ranks: 1, Async: async})
		if err != nil {
			t.Fatal(err)
		}
		tc := &fakeCtx{}
		kernel := packedOf(t, b, xr, proc, "kernel")
		xr.Dispatch(tc, kernel, xray.Entry)
		xr.Dispatch(tc, kernel, xray.Exit)
		rt.Close()
		if e, x := back.enters.Load(), back.exits.Load(); e != 1 || x != 1 {
			t.Fatalf("async=%v: %d enters / %d exits before Close, want 1 each", async, e, x)
		}
		done := make(chan struct{})
		go func() {
			xr.Dispatch(tc, kernel, xray.Entry)
			xr.Dispatch(tc, kernel, xray.Exit)
			rt.DrainPipeline()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("async=%v: DrainPipeline after Close did not return within 5s", async)
		}
		if e, x := back.enters.Load(), back.exits.Load(); e != 1 || x != 1 {
			t.Fatalf("async=%v: backend saw %d enters / %d exits after Close, want 1 each", async, e, x)
		}
	}
}
