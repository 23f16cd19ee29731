package workload

import (
	"fmt"

	"capi/internal/compiler"
	"capi/internal/exec"
	"capi/internal/mpi"
)

// RunVanilla executes a build without any instrumentation runtime and
// returns the total virtual seconds (max over ranks) — the Table II
// "vanilla" baseline. skew scales per-rank work as exec.Config.RankWorkSkew
// does (nil = balanced). Instrumented runs go through capi.Session; this
// helper serves Session.RunVanilla and the generators' smoke tests.
func RunVanilla(b *compiler.Build, ranks int, skew []float64) (float64, error) {
	proc, err := b.LoadProcess()
	if err != nil {
		return 0, err
	}
	world, err := mpi.NewWorld(ranks, mpi.DefaultCostModel())
	if err != nil {
		return 0, err
	}
	eng, err := exec.New(exec.Config{Build: b, Proc: proc, World: world, RankWorkSkew: skew})
	if err != nil {
		return 0, err
	}
	if err := eng.Run(); err != nil {
		return 0, err
	}
	var maxSec float64
	for _, r := range world.Ranks() {
		if s := r.Clock().Seconds(); s > maxSec {
			maxSec = s
		}
	}
	if maxSec == 0 {
		return 0, fmt.Errorf("workload: run produced no virtual time")
	}
	return maxSec, nil
}
