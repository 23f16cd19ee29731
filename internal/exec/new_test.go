package exec_test

import (
	"runtime"
	"testing"

	"capi/internal/compiler"
	"capi/internal/exec"
	"capi/internal/mpi"
	"capi/internal/workload"
	"capi/internal/xray"
)

// phaseConfig is what one phase hands exec.New at openfoam@scale: the
// session's XRay build, a loaded process with its XRay runtime and a
// four-rank world.
func phaseConfig(tb testing.TB, scale float64) exec.Config {
	tb.Helper()
	b, err := compiler.Compile(workload.OpenFOAM(workload.OpenFOAMOptions{Scale: scale}), compiler.Options{XRay: true})
	if err != nil {
		tb.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		tb.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := mpi.NewWorld(4, mpi.DefaultCostModel())
	if err != nil {
		tb.Fatal(err)
	}
	return exec.Config{Build: b, Proc: proc, XRay: xr, World: w}
}

// TestNewAllocs bounds the bytes one exec.New allocates at openfoam@0.05,
// i.e. what every phase pays before it runs: per function its layout, sled
// object and call targets, and no copy of the program's ops. With a 48-byte
// copy of every op it allocated 3.96 MB, and 1.34 MB since; the ceiling is
// 10 % above that.
func TestNewAllocs(t *testing.T) {
	const ceilingMB = 1.47
	cfg := phaseConfig(t, 0.05)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := exec.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	t.Logf("one openfoam@0.05 exec.New allocates %.2f MB (ceiling %.2f)", mb, ceilingMB)
	if mb > ceilingMB {
		t.Errorf("one openfoam@0.05 exec.New allocates %.2f MB, ceiling %.2f", mb, ceilingMB)
	}
}

// BenchmarkNew times resolving openfoam@0.1 for one phase; run with
// -benchmem.
func BenchmarkNew(b *testing.B) {
	cfg := phaseConfig(b, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
