package capi_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	capi "capi"
	"capi/internal/experiments"
)

// TestReconfigureOpenFOAMGolden alternates the two builtin selections the
// control_plane benchmark alternates, on the same openfoam@0.1 build, and
// compares every delta report with what the map-rebuilding Reconfigure
// (before PR 19) reported: counts, the name diff (length and digest) and the
// exact patching work.
func TestReconfigureOpenFOAMGolden(t *testing.T) {
	sess, err := capi.NewAppSession("openfoam", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sels := map[string]*capi.Selection{}
	for _, b := range []string{"mpi", "kernels"} {
		src, err := experiments.SpecSource(b)
		if err != nil {
			t.Fatal(err)
		}
		if sels[b], err = sess.Select(src); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := sess.Start(sels["kernels"], capi.RunOptions{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	digest := func(names []string) string {
		sum := sha256.Sum256([]byte(strings.Join(names, "\n")))
		return fmt.Sprintf("%d:%x", len(names), sum[:6])
	}
	want := map[string]string{
		"mpi":     "patched 1130 unpatched 615 kept 197 active 1327 added 1130:4e6241375772 removed 615:30868ddf7b82 batch {PatchedSleds:2260 UnpatchedSleds:1230 MprotectPages:303 MprotectCalls:160 BatchCalls:2 BatchFuncs:1745 BatchWindows:80}",
		"kernels": "patched 615 unpatched 1130 kept 197 active 812 added 615:30868ddf7b82 removed 1130:4e6241375772 batch {PatchedSleds:1230 UnpatchedSleds:2260 MprotectPages:303 MprotectCalls:160 BatchCalls:2 BatchFuncs:1745 BatchWindows:80}",
	}
	for i, b := range []string{"mpi", "kernels", "mpi", "kernels"} {
		rep, err := inst.Reconfigure(sels[b])
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("patched %d unpatched %d kept %d active %d added %s removed %s batch %+v",
			rep.Patched, rep.Unpatched, rep.Kept, rep.Active, digest(rep.AddedNames), digest(rep.RemovedNames), rep.Batch)
		if got != want[b] {
			t.Errorf("round %d, to %s:\n got %s\nwant %s", i, b, got, want[b])
		}
		if rep.Seq != i+1 || inst.Status().ActiveFunctions != sels[b].IC.Len() {
			t.Errorf("round %d: seq %d, %d active for an IC of %d", i, rep.Seq, inst.Status().ActiveFunctions, sels[b].IC.Len())
		}
	}
}
