package capi_test

import (
	"testing"

	capi "capi"
)

// TestListing3CoarseRegions guards the paper's §V-D motivating scenario:
// in the nested OpenFOAM solve chain (Listing 3), the coarse selector must
// drop the single-caller wrappers between fvMatrix::solve and the Amul
// kernel while retaining the hotspots, and the resulting TALP measurement
// must report the kernel as its own region.
func TestListing3CoarseRegions(t *testing.T) {
	s, err := capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 2, PCGIters: 4}),
		capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Select(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=", 1, %%))
sel = subtract(join(%mpi_comm, callPathTo(%kernels)), %excluded)
coarse(%sel, %kernels)
`)
	if err != nil {
		t.Fatal(err)
	}

	// The thin wrappers of Listing 3 must be gone (single-caller chains or
	// inlined vague-linkage bodies)...
	for _, wrapper := range []string{
		"Foam::fvMesh::solve",
		"Foam::fvMatrix::solveSegregatedOrCoupled",
		"Foam::fvMatrix::solveSegregated",
	} {
		if sel.IC.Contains(wrapper) {
			t.Errorf("coarse IC retains wrapper %s", wrapper)
		}
	}
	// ...while the kernel and the outer solve entry stay.
	for _, keep := range []string{
		"Foam::lduMatrix::Amul",
		"Foam::fvMatrix::solve",
	} {
		if !sel.IC.Contains(keep) {
			t.Errorf("coarse IC misses %s", keep)
		}
	}

	res, err := s.Run(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	amul := talpOf(res).Region("Foam::lduMatrix::Amul")
	if amul == nil {
		t.Fatal("Amul not measured as a TALP region")
	}
	if amul.Visits == 0 {
		t.Fatal("Amul region never entered")
	}
	// The parallel-efficiency metrics are well-formed probabilities.
	for _, r := range talpOf(res).Regions {
		if pe := r.Metrics.ParallelEfficiency; pe < 0 || pe > 1.000001 {
			t.Errorf("region %s: parallel efficiency %f out of range", r.Name, pe)
		}
	}
	// None of the dropped wrappers shows up in the report.
	if talpOf(res).Region("Foam::fvMatrix::solveSegregated") != nil {
		t.Error("dropped wrapper measured anyway")
	}
}
