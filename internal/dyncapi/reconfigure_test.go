package dyncapi

import (
	"sync"
	"sync/atomic"
	"testing"

	"capi/internal/ic"
	"capi/internal/xray"
)

func TestReconfigureAppliesDelta(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel", "dso_fn"}), &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := xr.Stats()

	rep, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn", "main"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patched != 1 || rep.Unpatched != 1 || rep.Kept != 1 || rep.Active != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Seq != 1 || rt.Snapshot().Reconfigs != 1 {
		t.Fatalf("seq = %d, reconfigs = %d", rep.Seq, rt.Snapshot().Reconfigs)
	}
	// Only the delta was re-patched: one function's sleds each way.
	if rep.Batch.PatchedSleds != 2 || rep.Batch.UnpatchedSleds != 2 {
		t.Fatalf("batch sleds = %+v (must touch only the delta)", rep.Batch)
	}
	if rep.Batch.BatchFuncs != 2 {
		t.Fatalf("batch funcs = %d, want 2", rep.Batch.BatchFuncs)
	}
	after := xr.Stats()
	if got := after.PatchedSleds - before.PatchedSleds; got != 2 {
		t.Fatalf("global patched-sled delta = %d, want 2", got)
	}
	if rep.VirtualNs != 2*perPatch {
		t.Fatalf("virtual cost = %d", rep.VirtualNs)
	}
	if len(rep.AddedNames) != 1 || rep.AddedNames[0] != "main" ||
		len(rep.RemovedNames) != 1 || rep.RemovedNames[0] != "kernel" {
		t.Fatalf("diff = +%v -%v", rep.AddedNames, rep.RemovedNames)
	}

	// Sled state matches the new selection.
	if xr.Patched(packedOf(t, b, xr, proc, "kernel")) {
		t.Fatal("kernel still patched after deselection")
	}
	if !xr.Patched(packedOf(t, b, xr, proc, "main")) || !xr.Patched(packedOf(t, b, xr, proc, "dso_fn")) {
		t.Fatal("new selection not patched")
	}
	if !rt.Active(packedOf(t, b, xr, proc, "main")) || rt.Active(packedOf(t, b, xr, proc, "kernel")) {
		t.Fatal("active set wrong")
	}
	if got := rt.ActiveCount(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	if rt.Config().Contains("kernel") {
		t.Fatal("config not updated")
	}
}

func TestReconfigureStopsEventsForDeselected(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	var events atomic.Int64
	back := &CygBackend{
		EnterFunc: func(xray.ThreadCtx, uint64) { events.Add(1) },
		ExitFunc:  func(xray.ThreadCtx, uint64) { events.Add(1) },
	}
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel"}), back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	kernel := packedOf(t, b, xr, proc, "kernel")
	xr.Dispatch(tc, kernel, xray.Entry)
	if events.Load() != 1 {
		t.Fatalf("events = %d, want 1", events.Load())
	}
	if _, err := rt.Reconfigure(ic.New("app", "s", []string{"dso_fn"})); err != nil {
		t.Fatal(err)
	}
	// A straggler event for the deselected function (e.g. a sled hit racing
	// the unpatch) is dropped, not delivered to the backend.
	xr.Dispatch(tc, kernel, xray.Entry)
	if events.Load() != 1 {
		t.Fatalf("deselected function still delivered events: %d", events.Load())
	}
	if snap := rt.Snapshot(); snap.DroppedInFlight+snap.DroppedUnpatched != 1 {
		t.Fatalf("dropped = %d in flight + %d unpatched, want 1", snap.DroppedInFlight, snap.DroppedUnpatched)
	}
}

func TestReconfigureReplacesPatchAll(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, nil, &CygBackend{}, Options{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Report().Patched != 4 {
		t.Fatalf("patch-all patched %d", rt.Report().Patched)
	}
	rep, err := rt.Reconfigure(ic.New("app", "s", []string{"kernel"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unpatched != 3 || rep.Kept != 1 || rep.Active != 1 {
		t.Fatalf("report = %+v", rep)
	}
	for _, name := range []string{"main", "dso_fn", "hidden_fn"} {
		if xr.Patched(packedOf(t, b, xr, proc, name)) {
			t.Fatalf("%s still patched after narrowing from PatchAll", name)
		}
	}
	if !xr.Patched(packedOf(t, b, xr, proc, "kernel")) {
		t.Fatal("kernel lost its patch")
	}
}

func TestReconfigureNilConfig(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, nil, &CygBackend{}, Options{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reconfigure(nil); err == nil {
		t.Fatal("nil config must be rejected")
	}
}

// TestReconfigureConcurrentWithHandler is the go test -race regression for
// the lock/atomic discipline: XRay handler events keep firing on several
// goroutines (as they do on every rank) while the selection is repeatedly
// reconfigured. Before the active-set was an atomically swapped map this
// raced on the runtime's lookup table.
func TestReconfigureConcurrentWithHandler(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	var events atomic.Int64
	back := &CygBackend{
		EnterFunc: func(xray.ThreadCtx, uint64) { events.Add(1) },
		ExitFunc:  func(xray.ThreadCtx, uint64) { events.Add(1) },
	}
	cfgA := ic.New("app", "s", []string{"kernel", "dso_fn"})
	cfgB := ic.New("app", "s", []string{"main"})
	rt, err := New(proc, xr, cfgA, back, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ids := []int32{
		packedOf(t, b, xr, proc, "main"),
		packedOf(t, b, xr, proc, "kernel"),
		packedOf(t, b, xr, proc, "dso_fn"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tc := &fakeCtx{}
			for i := 0; i < 1000; i++ {
				id := ids[(g+i)%len(ids)]
				xr.Dispatch(tc, id, xray.Entry)
				xr.Dispatch(tc, id, xray.Exit)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		cfg := cfgA
		if i%2 == 0 {
			cfg = cfgB
		}
		if _, err := rt.Reconfigure(cfg); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if rt.Snapshot().Reconfigs != 200 {
		t.Fatalf("reconfigs = %d", rt.Snapshot().Reconfigs)
	}
	if events.Load() == 0 {
		t.Fatal("no events delivered during concurrent reconfiguration")
	}
}
