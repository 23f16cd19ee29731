package dyncapi

import (
	"testing"
	"unsafe"

	"capi/internal/ic"
	"capi/internal/xray"
)

// pairCountBackend counts delivered enters/exits and tracks per-function
// balance so tests can assert the sampler never delivers half a pair.
type pairCountBackend struct {
	enters, exits int64
	open          map[int32]int
}

func newPairCountBackend() *pairCountBackend {
	return &pairCountBackend{open: map[int32]int{}}
}

func (b *pairCountBackend) Name() string { return "pair-count" }
func (b *pairCountBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.enters++
	b.open[fn.PackedID]++
}
func (b *pairCountBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.exits++
	b.open[fn.PackedID]--
}
func (b *pairCountBackend) InitCost(int) int64 { return 0 }

// samplerSetup patches kernel+dso_fn under a counting backend.
func samplerSetup(t *testing.T) (*Runtime, *xray.Runtime, *pairCountBackend, int32, int32) {
	t.Helper()
	b := buildProg(t)
	proc, xr := setup(t, b)
	back := newPairCountBackend()
	rt, err := New(proc, xr, ic.New("app", "test", []string{"kernel", "dso_fn"}), back, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rt, xr, back, packedOf(t, b, xr, proc, "kernel"), packedOf(t, b, xr, proc, "dso_fn")
}

// conserve asserts the sampler's conservation invariant and returns the
// counters.
func conserve(t *testing.T, rt *Runtime) SamplingCounters {
	t.Helper()
	rt.FlushSampling(rt.Ranks())
	c := rt.SamplingSnapshot().Counters
	if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
		t.Fatalf("conservation broken: delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
			c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
	}
	return c
}

func dispatchPair(xr *xray.Runtime, tc xray.ThreadCtx, id int32, workNs int64) {
	xr.Dispatch(tc, id, xray.Entry)
	tc.Clock().Advance(workNs)
	xr.Dispatch(tc, id, xray.Exit)
}

func TestStrideSamplingExactOneInN(t *testing.T) {
	rt, xr, back, kernel, _ := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 8}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	const pairs = 100
	for i := 0; i < pairs; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	c := conserve(t, rt)
	// 100 enters at 1-in-8: enters 0,8,16,…,96 delivered = 13.
	if c.Enters != pairs || c.Delivered != 13 || c.SampledEvents != 87 {
		t.Fatalf("counters = %+v, want 100 enters, 13 delivered, 87 sampled out", c)
	}
	if back.enters != 13 || back.exits != 13 {
		t.Fatalf("backend saw %d/%d, want 13/13 (whole pairs only)", back.enters, back.exits)
	}
	if back.open[kernel] != 0 {
		t.Fatalf("unbalanced delivery: %d open", back.open[kernel])
	}
}

func TestStrideSamplingNonPowerOfTwo(t *testing.T) {
	rt, xr, back, kernel, _ := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 10}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	for i := 0; i < 95; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	c := conserve(t, rt)
	if c.Delivered != 10 || c.SampledEvents != 85 {
		t.Fatalf("counters = %+v, want 10 delivered of 95 at 1-in-10", c)
	}
	if back.enters != 10 || back.exits != 10 {
		t.Fatalf("backend saw %d/%d", back.enters, back.exits)
	}
}

func TestMinDurationSuppressionWithExactAccounting(t *testing.T) {
	rt, xr, back, kernel, _ := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{MinDurationNs: 1000}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	// First pair: no history, delivered (measures 100ns — short).
	dispatchPair(xr, tc, kernel, 100)
	// Next 10 pairs predicted short: suppressed, 100ns each.
	for i := 0; i < 10; i++ {
		dispatchPair(xr, tc, kernel, 100)
	}
	// One long pair: still predicted short (last dur 100ns) → suppressed,
	// but its 5000ns is accounted; the prediction updates.
	dispatchPair(xr, tc, kernel, 5000)
	// Now predicted long: delivered.
	dispatchPair(xr, tc, kernel, 5000)
	c := conserve(t, rt)
	if c.Enters != 13 || c.Delivered != 2 || c.SuppressedPairs != 11 {
		t.Fatalf("counters = %+v, want 13 enters, 2 delivered, 11 suppressed", c)
	}
	// Exact drop accounting: 10×100ns + 1×5000ns.
	if c.SuppressedNs != 10*100+5000 {
		t.Fatalf("suppressed ns = %d, want %d", c.SuppressedNs, 10*100+5000)
	}
	if back.enters != 2 || back.exits != 2 {
		t.Fatalf("backend saw %d/%d", back.enters, back.exits)
	}
}

func TestRedundancyCollapseCountsAndAggregates(t *testing.T) {
	rt, xr, _, kernel, _ := samplerSetup(t)
	err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{
		CollapseRedundant: true, RedundantGapNs: 500,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	// A streak of 20 back-to-back 100ns calls (gap 0 between them): the
	// first delivers, the rest collapse into count + aggregate.
	for i := 0; i < 20; i++ {
		dispatchPair(xr, tc, kernel, 100)
	}
	// Break the streak with a long gap: the next call delivers again.
	tc.Clock().Advance(10_000)
	dispatchPair(xr, tc, kernel, 100)
	c := conserve(t, rt)
	if c.Delivered != 2 || c.CollapsedCalls != 19 {
		t.Fatalf("counters = %+v, want 2 delivered, 19 collapsed", c)
	}
	if c.CollapsedNs != 19*100 {
		t.Fatalf("collapsed ns = %d, want %d", c.CollapsedNs, 19*100)
	}
	// Long calls within the gap are not redundant.
	tc.Clock().Advance(10_000)
	dispatchPair(xr, tc, kernel, 2000) // delivered (streak broken), dur 2000 > gap 500
	dispatchPair(xr, tc, kernel, 2000) // previous dur not short → delivered
	c = conserve(t, rt)
	if c.Delivered != 4 {
		t.Fatalf("long repeats collapsed: %+v", c)
	}
}

func TestLiveRateChangeConservesAndBalances(t *testing.T) {
	rt, xr, back, kernel, dso := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 4}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	// Open a nested pair, change the policy mid-pair, then close it: the
	// exit must follow the enter's recorded decision.
	xr.Dispatch(tc, kernel, xray.Entry) // ctr 1 → delivered
	xr.Dispatch(tc, kernel, xray.Entry) // ctr 2 → sampled out
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 1}}); err != nil {
		t.Fatal(err)
	}
	xr.Dispatch(tc, kernel, xray.Exit) // follows "sampled out"
	xr.Dispatch(tc, kernel, xray.Exit) // follows "delivered"
	if back.open[kernel] != 0 {
		t.Fatalf("unbalanced across rate change: %d open", back.open[kernel])
	}
	// Hammer both functions across several live rate changes.
	strides := []int{1, 16, 3, 64}
	for round, s := range strides {
		if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: s}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50+round; i++ {
			dispatchPair(xr, tc, kernel, 50)
			dispatchPair(xr, tc, dso, 50)
		}
	}
	c := conserve(t, rt)
	if c.Enters != int64(2+2*(50+51+52+53)) {
		t.Fatalf("enters = %d", c.Enters)
	}
	if back.enters != c.Delivered || back.exits != back.enters {
		t.Fatalf("backend %d/%d vs delivered %d", back.enters, back.exits, c.Delivered)
	}
	if back.open[kernel] != 0 || back.open[dso] != 0 {
		t.Fatalf("open pairs leaked: %v", back.open)
	}

	t.Run("overrides-only, stride default, clear, overrides-only", func(t *testing.T) {
		rt, xr, back, kernel, dso := samplerSetup(t)
		overrides := SamplingConfig{IDs: map[int32]SamplePolicy{kernel: {Stride: 3}}}
		tables := []SamplingConfig{overrides, {Default: &SamplePolicy{Stride: 4}}, {}, overrides}
		tc := &fakeCtx{}
		enters := int64(0)
		// Every change after the first lands with both functions two frames
		// deep: dso has no state under the first table, gets one under the
		// stride default and keeps it through the clear and the second
		// overrides-only table.
		for round, cfg := range tables {
			if round > 0 {
				for _, id := range []int32{kernel, dso, kernel, dso} {
					xr.Dispatch(tc, id, xray.Entry)
				}
				enters += 4
			}
			if err := rt.SetSampling(cfg); err != nil {
				t.Fatal(err)
			}
			if round > 0 {
				for _, id := range []int32{dso, kernel, dso, kernel} {
					xr.Dispatch(tc, id, xray.Exit)
				}
			}
			for i := 0; i < 20+round; i++ {
				dispatchPair(xr, tc, kernel, 50)
				dispatchPair(xr, tc, dso, 50)
			}
			enters += 2 * int64(20+round)
		}
		c := conserve(t, rt)
		if c.Enters != enters {
			t.Fatalf("enters = %d, want %d", c.Enters, enters)
		}
		if back.enters != c.Delivered || back.exits != back.enters {
			t.Fatalf("backend %d/%d vs delivered %d", back.enters, back.exits, c.Delivered)
		}
		if back.open[kernel] != 0 || back.open[dso] != 0 {
			t.Fatalf("open pairs leaked: %v", back.open)
		}
	})
}

// TestPolicyLessFunctionsGetNoState: under a table of per-ID overrides only,
// the first events of the functions without a policy allocate nothing and
// leave them without sampler state; their enters are still counted.
func TestPolicyLessFunctionsGetNoState(t *testing.T) {
	b := buildSix(t)
	proc, xr := setup(t, b)
	back := &atomicCounter{}
	rt, err := New(proc, xr, ic.New("app", "s", sixFuncs), back, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, len(sixFuncs))
	for i, name := range sixFuncs {
		ids[i] = packedOf(t, b, xr, proc, name)
	}
	if err := rt.SetSampling(SamplingConfig{IDs: map[int32]SamplePolicy{ids[0]: {Stride: 2}}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	next := 1
	// One warm-up call and len-2 measured ones: each reaches a function that
	// has not fired yet.
	allocs := testing.AllocsPerRun(len(ids)-2, func() {
		dispatchPair(xr, tc, ids[next], 50)
		next++
	})
	if allocs != 0 {
		t.Errorf("first events of policy-less functions allocated %.2f times per pair, want 0", allocs)
	}
	for i, id := range ids {
		if has := rt.slot(id).sample.Load() != nil; has != (i == 0) {
			t.Errorf("%s has sampler state: %v, want %v", sixFuncs[i], has, i == 0)
		}
	}
	dispatchPair(xr, tc, ids[0], 50)
	dispatchPair(xr, tc, ids[0], 50)
	c := conserve(t, rt)
	if c.Enters != int64(len(ids)+1) || c.Delivered != int64(len(ids)) || c.SampledEvents != 1 {
		t.Fatalf("counters = %+v, want %d enters, %d delivered, 1 sampled out", c, len(ids)+1, len(ids))
	}
	if got := back.events.Load(); got != 2*c.Delivered {
		t.Fatalf("backend saw %d events, want %d", got, 2*c.Delivered)
	}
}

// TestSampleAccountsOwnCacheLines: a rank writes its account on every
// enter, so the line each rank's account starts on must be one no other rank
// writes — in the array New allocates, and 8 bytes past a line as well.
func TestSampleAccountsOwnCacheLines(t *testing.T) {
	var a sampleAccount
	written := unsafe.Offsetof(a.pubCollapsedNs) + unsafe.Sizeof(a.pubCollapsedNs)
	if size := unsafe.Sizeof(a); 8+written > size {
		t.Fatalf("an account 8 bytes past a line writes past its %d bytes", size)
	}
	for ranks := 2; ranks <= 64; ranks++ {
		accounts := make([]sampleAccount, ranks)
		for r := 1; r < ranks; r++ {
			prevEnd := uintptr(unsafe.Pointer(&accounts[r-1])) + written - 1
			if start := uintptr(unsafe.Pointer(&accounts[r])); prevEnd>>6 == start>>6 {
				t.Fatalf("%d ranks: rank %d's account starts on line %#x, which rank %d writes", ranks, r, start>>6<<6, r-1)
			}
		}
	}
}

func TestPolicyInstalledMidPairKeepsBalance(t *testing.T) {
	rt, xr, back, kernel, _ := samplerSetup(t)
	tc := &fakeCtx{}
	// Enter before any policy exists (no sampler state at all)…
	xr.Dispatch(tc, kernel, xray.Entry)
	// …install an aggressive policy mid-pair…
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 1000}}); err != nil {
		t.Fatal(err)
	}
	// …the exit was delivered unsampled (depth 0 fallthrough).
	xr.Dispatch(tc, kernel, xray.Exit)
	if back.enters != 1 || back.exits != 1 || back.open[kernel] != 0 {
		t.Fatalf("backend %d/%d open %d", back.enters, back.exits, back.open[kernel])
	}
}

func TestPerFunctionOverridesAndClear(t *testing.T) {
	rt, xr, back, kernel, dso := samplerSetup(t)
	err := rt.SetSampling(SamplingConfig{
		Default: &SamplePolicy{Stride: 2},
		Funcs:   map[string]SamplePolicy{"dso_fn": {Stride: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	for i := 0; i < 10; i++ {
		dispatchPair(xr, tc, kernel, 50)
		dispatchPair(xr, tc, dso, 50)
	}
	c := conserve(t, rt)
	if c.Delivered != 5+2 { // kernel 1-in-2 of 10, dso 1-in-5 of 10
		t.Fatalf("delivered = %d, want 7", c.Delivered)
	}
	snap := rt.SamplingSnapshot()
	if !snap.Configured || snap.Default == nil || snap.Default.Stride != 2 || snap.FuncPolicies != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Clearing the table delivers everything again but keeps accounting.
	if err := rt.SetSampling(SamplingConfig{}); err != nil {
		t.Fatal(err)
	}
	before := back.enters
	dispatchPair(xr, tc, kernel, 50)
	if back.enters != before+1 {
		t.Fatal("cleared table still sampling")
	}
	if snap := rt.SamplingSnapshot(); snap.Configured {
		t.Fatalf("snapshot still configured: %+v", snap)
	}
	if c2 := conserve(t, rt); c2.Enters != c.Enters+1 {
		t.Fatalf("accounting lost on clear: %+v", c2)
	}
}

func TestSetSamplingValidatesBeforeMutating(t *testing.T) {
	rt, _, _, kernel, _ := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 16}}); err != nil {
		t.Fatal(err)
	}
	// Unknown function name: rejected, nothing applied.
	err := rt.SetSampling(SamplingConfig{
		Default: &SamplePolicy{Stride: 2},
		Funcs:   map[string]SamplePolicy{"no_such_fn": {Stride: 3}},
	})
	if err == nil {
		t.Fatal("unknown function accepted")
	}
	if snap := rt.SamplingSnapshot(); snap.Default == nil || snap.Default.Stride != 16 {
		t.Fatalf("failed config mutated the table: %+v", snap)
	}
	// Invalid policy values: rejected.
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: -4}}); err == nil {
		t.Fatal("negative stride accepted")
	}
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{MinDurationNs: -1}}); err == nil {
		t.Fatal("negative min duration accepted")
	}
	if err := rt.SetSampling(SamplingConfig{IDs: map[int32]SamplePolicy{1 << 30: {Stride: 2}}}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := rt.SetFuncSampling(1<<30, &SamplePolicy{Stride: 2}); err == nil {
		t.Fatal("SetFuncSampling unknown id accepted")
	}
	// Per-ID config on a known function works.
	if err := rt.SetSampling(SamplingConfig{IDs: map[int32]SamplePolicy{kernel: {Stride: 2}}}); err != nil {
		t.Fatal(err)
	}
	if snap := rt.SamplingSnapshot(); snap.Default != nil || snap.FuncPolicies != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSetFuncSamplingDemotePromote(t *testing.T) {
	rt, xr, back, kernel, _ := samplerSetup(t)
	if err := rt.SetFuncSampling(kernel, &SamplePolicy{Stride: 4}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	for i := 0; i < 8; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	if back.enters != 2 {
		t.Fatalf("demoted kernel delivered %d of 8, want 2", back.enters)
	}
	// Promote back: full delivery resumes.
	if err := rt.SetFuncSampling(kernel, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	if back.enters != 6 {
		t.Fatalf("promoted kernel delivered %d, want 6", back.enters)
	}
	// With a table default installed, removing an override reverts to the
	// *default*, not to full rate — a promotion must not erode the table.
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetFuncSampling(kernel, &SamplePolicy{Stride: 64}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetFuncSampling(kernel, nil); err != nil { // promote
		t.Fatal(err)
	}
	before := back.enters
	for i := 0; i < 8; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	if got := back.enters - before; got != 4 {
		t.Fatalf("after promotion under a stride-2 default: delivered %d of 8, want 4", got)
	}
	conserve(t, rt)
}

func TestSamplingSurfacesInSnapshotAndReconfigReport(t *testing.T) {
	rt, xr, _, kernel, dso := samplerSetup(t)
	if err := rt.SetSampling(SamplingConfig{Default: &SamplePolicy{Stride: 2}}); err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	for i := 0; i < samplePublishWindow*2; i++ {
		dispatchPair(xr, tc, kernel, 50)
	}
	snap := rt.Snapshot()
	if snap.Sampling == nil || !snap.Sampling.Configured || snap.Sampling.Counters.Enters == 0 {
		t.Fatalf("runtime snapshot missing sampling: %+v", snap.Sampling)
	}
	rep, err := rt.Reconfigure(ic.New("app", "test", []string{"kernel"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampling == nil || rep.Sampling.SampledEvents == 0 {
		t.Fatalf("reconfig report missing sampling counters: %+v", rep.Sampling)
	}
	_ = dso
}

// TestSampleSlotsOwnCacheLines: a rank writes its slot's depth and bits on
// every event and its spill past 64 frames, so the line each rank's slot
// starts on must be one no other rank writes. (A slot array larger than 512
// bytes starts 8 bytes past a line, after the allocator's type header; the
// padding absorbs that.)
func TestSampleSlotsOwnCacheLines(t *testing.T) {
	var sl sampleSlot
	written := unsafe.Offsetof(sl.spill) + unsafe.Sizeof(sl.spill)
	for ranks := 2; ranks <= 64; ranks++ {
		st := newFuncSampleState(ranks)
		for r := 1; r < ranks; r++ {
			prevEnd := uintptr(unsafe.Pointer(&st.slots[r-1])) + written - 1
			if start := uintptr(unsafe.Pointer(&st.slots[r])); prevEnd>>6 == start>>6 {
				t.Fatalf("%d ranks: rank %d's slot starts on line %#x, which rank %d writes", ranks, r, start>>6<<6, r-1)
			}
		}
	}
}
