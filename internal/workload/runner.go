package workload

import (
	"fmt"

	"capi/internal/compiler"
	"capi/internal/exec"
	"capi/internal/mpi"
	"capi/internal/xray"
)

// Run executes a build once with no sled patched and returns the total
// virtual seconds (max over ranks): the Table II "vanilla" baseline for a
// build without sleds, "xray inactive" for one with them. An XRay runtime
// is always attached, so each unpatched sled charges its NOP; a vanilla
// build has no patchable image and registers nothing. skew scales per-rank
// work as exec.Config.RankWorkSkew does (nil = balanced).
func Run(b *compiler.Build, ranks int, skew []float64) (float64, error) {
	proc, err := b.LoadProcess()
	if err != nil {
		return 0, err
	}
	world, err := mpi.NewWorld(ranks, mpi.DefaultCostModel())
	if err != nil {
		return 0, err
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		return 0, err
	}
	eng, err := exec.New(exec.Config{Build: b, Proc: proc, XRay: xr, World: world, RankWorkSkew: skew})
	if err != nil {
		return 0, err
	}
	if err := eng.Run(); err != nil {
		return 0, err
	}
	sec := world.Seconds()
	if sec == 0 {
		return 0, fmt.Errorf("workload: run produced no virtual time")
	}
	return sec, nil
}
