package experiments

import (
	"testing"

	capi "capi"
	"capi/internal/compiler"
	"capi/internal/exec"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/workload"
	"capi/internal/xray"
)

// TestStaticDynamicEquivalence checks the core promise of the paper's
// contribution: applying an IC dynamically (XRay sled patching at start-up)
// measures exactly the same regions with exactly the same visit counts as
// the original static workflow (measurement hooks compiled into the
// selected functions) — recompilation buys nothing but lost time.
func TestStaticDynamicEquivalence(t *testing.T) {
	p := workload.Lulesh(workload.LuleshOptions{CGNodes: 800, Timesteps: 4})
	const ranks = 2

	// One shared selection.
	s, err := capi.NewSession(p, capi.SessionOptions{OptLevel: workload.LuleshOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	row, err := selectSpec("lulesh", s, "mpi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := row.IC

	// --- dynamic: XRay build, patch at startup, Score-P via addresses ---
	run, err := s.Run(row.Selection, capi.RunOptions{Ranks: ranks, Backends: []string{"scorep"}})
	if err != nil {
		t.Fatal(err)
	}
	dynProfile, _ := capi.ReportOf[*capi.Profile](run.Reports, "scorep")

	// --- static: recompile with the IC baked in, hooks by name ---
	staticBuild, err := compiler.Compile(p, compiler.Options{
		OptLevel: workload.LuleshOptLevel,
		StaticIC: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := staticBuild.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(ranks, mpi.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	m, err := scorep.New(scorep.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.New(exec.Config{
		Build: staticBuild,
		Proc:  proc,
		World: world,
		StaticHook: func(tc xray.ThreadCtx, fn string, kind xray.EntryType) {
			if kind == xray.Entry {
				m.Enter(tc, fn)
			} else {
				m.Exit(tc, fn)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	staticProfile := m.Profile()

	// Same regions, same visit counts.
	dynRegions := map[string]int64{}
	for _, r := range dynProfile.Regions {
		dynRegions[r.Name] = r.Visits
	}
	staticRegions := map[string]int64{}
	for _, r := range staticProfile.Regions {
		staticRegions[r.Name] = r.Visits
	}
	if len(dynRegions) == 0 {
		t.Fatal("dynamic run measured nothing")
	}
	for name, visits := range staticRegions {
		if dynRegions[name] != visits {
			t.Errorf("region %s: static %d visits, dynamic %d", name, visits, dynRegions[name])
		}
	}
	for name := range dynRegions {
		if _, ok := staticRegions[name]; !ok {
			t.Errorf("region %s measured dynamically but not statically", name)
		}
	}
}
