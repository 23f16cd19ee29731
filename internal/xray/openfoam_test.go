package xray_test

import (
	"sort"
	"testing"

	"capi/internal/compiler"
	"capi/internal/workload"
	"capi/internal/xray"
)

// TestPatchBatchOpenFOAMExactMprotectCounts pins the page-coalescing
// arithmetic at a real layout: every sled-carrying function of the
// openfoam@0.1 build (the PatchAll set), patched and then unpatched in one
// batch each. The counts are a pure function of the generated text layout,
// so any change to them is a change to the layout or to the windowing, not
// noise: the executable and the six patchable DSOs each coalesce into one
// window, opened and closed by one mprotect call apiece.
func TestPatchBatchOpenFOAMExactMprotectCounts(t *testing.T) {
	p := workload.OpenFOAM(workload.OpenFOAMOptions{Scale: 0.1})
	build, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: workload.OpenFOAMOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	byName, err := build.StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, 0, len(byName))
	for _, id := range byName {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	proc, err := build.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}

	const funcs, windows = 10337, 7
	if len(ids) != funcs {
		t.Fatalf("sled-carrying functions = %d, want %d", len(ids), funcs)
	}
	for _, enable := range []bool{true, false} {
		delta, err := xr.PatchBatch(ids, enable)
		if err != nil {
			t.Fatal(err)
		}
		patched, unpatched := int64(2*funcs), int64(0)
		if !enable {
			patched, unpatched = unpatched, patched
		}
		if delta.PatchedSleds != patched || delta.UnpatchedSleds != unpatched {
			t.Errorf("enable=%v: sleds patched/unpatched = %d/%d, want %d/%d",
				enable, delta.PatchedSleds, delta.UnpatchedSleds, patched, unpatched)
		}
		if delta.BatchCalls != 1 || delta.BatchFuncs != funcs {
			t.Errorf("enable=%v: batch calls/funcs = %d/%d, want 1/%d", enable, delta.BatchCalls, delta.BatchFuncs, funcs)
		}
		if delta.BatchWindows != windows || delta.MprotectCalls != 2*windows {
			t.Errorf("enable=%v: windows/mprotect calls = %d/%d, want %d/%d",
				enable, delta.BatchWindows, delta.MprotectCalls, windows, 2*windows)
		}
	}
}
