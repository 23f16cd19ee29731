// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure:
//
//   - BenchmarkTable1Selection  — Table I (selection time per app × spec)
//   - BenchmarkTable2Overhead   — Table II (instrumented runs per variant)
//   - BenchmarkFig4PackedID     — Fig. 4 (packed ID encode/decode)
//   - BenchmarkFactsInit        — §VI-B DynCaPI initialization (resolution,
//     hidden-symbol handling, patching)
//   - BenchmarkAblation*        — design-choice ablations: coarse selector,
//     inlining compensation, runtime filter vs. patch-time selection
//
// Every run goes through capi sessions. The workloads are scaled down
// (Scale, timesteps) so a full -bench=. pass stays in CI budgets;
// `go run ./cmd/capi paper -scale 1.0` prints the tables at paper scale.
// Shapes (who wins, by what factor) are scale-independent.
package capi_test

import (
	"testing"

	capi "capi"
	"capi/internal/callgraph"
	"capi/internal/compiler"
	"capi/internal/core"
	"capi/internal/dyncapi"
	"capi/internal/experiments"
	"capi/internal/metacg"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/workload"
	"capi/internal/xray"
	"capi/middleware"
)

// benchRanks sizes every benchmark's MPI world.
const benchRanks = 2

// benchSession prepares one of the paper's two test cases ("lulesh" or
// "openfoam") at a size that keeps every benchmark iteration bounded.
func benchSession(b *testing.B, app string) *capi.Session {
	b.Helper()
	var (
		s   *capi.Session
		err error
	)
	if app == "lulesh" {
		s, err = capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 10}), capi.SessionOptions{
			OptLevel: workload.LuleshOptLevel, RankWorkSkew: workload.LuleshRankSkew(benchRanks)})
	} else {
		s, err = capi.NewSession(capi.OpenFOAM(capi.OpenFOAMOptions{Scale: 0.02, Timesteps: 2, PCGIters: 4}), capi.SessionOptions{
			OptLevel: workload.OpenFOAMOptLevel, RankWorkSkew: workload.OpenFOAMRankSkew(benchRanks)})
	}
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSelect evaluates one of the paper's named specifications.
func benchSelect(b *testing.B, s *capi.Session, spec string) *capi.Selection {
	b.Helper()
	src, err := experiments.SpecSource(spec)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := s.Select(src)
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

// benchRun runs one measured phase and returns its virtual T_total.
func benchRun(b *testing.B, s *capi.Session, sel *capi.Selection, opts capi.RunOptions) float64 {
	b.Helper()
	opts.Ranks = benchRanks
	res, err := s.Run(sel, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.TotalSeconds
}

// BenchmarkTable1Selection regenerates Table I: one sub-benchmark per
// application × specification, timing the full selection pipeline
// (parse, evaluate, post-process) per iteration.
func BenchmarkTable1Selection(b *testing.B) {
	for _, app := range []string{"lulesh", "openfoam"} {
		s := benchSession(b, app)
		for _, spec := range experiments.SpecNames {
			b.Run(app+"/"+spec, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sel := benchSelect(b, s, spec); sel.Selected == 0 {
						b.Fatal("empty selection")
					}
				}
			})
		}
	}
}

// BenchmarkTable2Overhead regenerates Table II: one sub-benchmark per
// application × backend × variant, executing the instrumented run per
// iteration and reporting the virtual overhead as a custom metric.
func BenchmarkTable2Overhead(b *testing.B) {
	for _, app := range []string{"lulesh", "openfoam"} {
		s := benchSession(b, app)
		vanSec, err := s.RunVanilla(benchRanks)
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []string{"talp", "scorep"} {
			for _, variant := range []string{"xray inactive", "xray full", "mpi", "kernels"} {
				opts := capi.RunOptions{Backends: []string{backend}}
				var sel *capi.Selection
				switch variant {
				case "xray inactive":
					if backend != "talp" {
						continue // backend-independent; bench once
					}
					opts = capi.RunOptions{}
				case "xray full":
					opts.PatchAll = true
				default:
					sel = benchSelect(b, s, variant)
				}
				b.Run(app+"/"+backend+"/"+variant, func(b *testing.B) {
					var overhead float64
					for i := 0; i < b.N; i++ {
						overhead = (benchRun(b, s, sel, opts) - vanSec) / vanSec
					}
					b.ReportMetric(100*overhead, "overhead%")
				})
			}
		}
	}
}

// BenchmarkFig4PackedID measures the packed object/function ID encode and
// decode of Fig. 4 — the operation every dispatched event performs.
func BenchmarkFig4PackedID(b *testing.B) {
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			obj, fn := uint8(i%255), uint32(i)%(1<<24)
			id, err := xray.PackID(obj, fn)
			if err != nil {
				b.Fatal(err)
			}
			// Object IDs ≥ 128 set the int32 sign bit — only the
			// round-trip is meaningful.
			if gotObj, gotFn := xray.UnpackID(id); gotObj != obj || gotFn != fn {
				b.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", obj, fn, id, gotObj, gotFn)
			}
		}
	})
	b.Run("unpack", func(b *testing.B) {
		id, _ := xray.PackID(7, 123456)
		for i := 0; i < b.N; i++ {
			obj, fn := xray.UnpackID(id)
			if obj != 7 || fn != 123456 {
				b.Fatal("roundtrip broken")
			}
		}
	})
}

// BenchmarkFactsInit measures DynCaPI initialization on the OpenFOAM case —
// function-ID resolution across 6 DSOs (with unresolvable hidden symbols)
// plus sled patching, the §VI-B(a) path and the dominant T_init component.
func BenchmarkFactsInit(b *testing.B) {
	s := benchSession(b, "openfoam")
	sel := benchSelect(b, s, "mpi")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := s.Start(sel, capi.RunOptions{Ranks: benchRanks})
		if err != nil {
			b.Fatal(err)
		}
		if inst.Status().Patched == 0 {
			b.Fatal("nothing patched")
		}
		inst.Close()
	}
}

// BenchmarkAblationCoarse isolates the coarse selector (§V-D): the same
// openfoam mpi pipeline with and without the final coarse stage.
func BenchmarkAblationCoarse(b *testing.B) {
	s := benchSession(b, "openfoam")
	for _, spec := range []string{"mpi", "mpi coarse"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSelect(b, s, spec)
			}
		})
	}
}

// BenchmarkAblationInliningCompensation isolates the §V-E post-pass by
// running the same pipeline with and without a symbol oracle.
func BenchmarkAblationInliningCompensation(b *testing.B) {
	p := workload.OpenFOAM(workload.OpenFOAMOptions{Scale: 0.02, Timesteps: 2, PCGIters: 4})
	g := metacg.BuildWholeProgram(p, metacg.Options{})
	build, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: workload.OpenFOAMOptLevel})
	if err != nil {
		b.Fatal(err)
	}
	src, err := experiments.SpecSource("mpi")
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"with-compensation", core.Options{Symbols: build}},
		{"without", core.Options{}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			eng := core.NewEngine(g)
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunSource(src, variant.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFilterIC is the IC the runtime-filter backend admits; set before
// each run (benchmarks run one at a time).
var benchFilterIC *capi.IC

// runtimeFilterBackend is the §II-B baseline as a custom backend: Score-P
// whose runtime filter drops every region outside benchFilterIC.
type runtimeFilterBackend struct {
	ev *dyncapi.ScorePBackend
	m  *scorep.Measurement
}

func (f *runtimeFilterBackend) Name() string                 { return "scorep-runtime-filter" }
func (f *runtimeFilterBackend) Events() capi.EventBackend    { return f.ev }
func (f *runtimeFilterBackend) StartPhase(*capi.World) error { return nil } // Session.Run is one phase
func (f *runtimeFilterBackend) Report() capi.Report {
	return capi.JSONReport{ReportKind: "profile", Value: f.m.Profile()}
}

func init() {
	capi.RegisterBackend("scorep-runtime-filter", func(cfg capi.BackendConfig) (capi.MeasurementBackend, error) {
		filter := scorep.NewFilter().Exclude("*")
		for _, name := range benchFilterIC.Include {
			filter.Include(name)
		}
		m, err := scorep.New(scorep.Options{Ranks: cfg.Ranks, RuntimeFilter: filter})
		if err != nil {
			return nil, err
		}
		return &runtimeFilterBackend{ev: dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(cfg.Proc)), m: m}, nil
	})
}

// BenchmarkAblationRuntimeFilter compares patch-time selection (the
// paper's approach) against Score-P runtime filtering with every sled
// patched (§II-B: "the overhead of invoking the probe and cross-checking
// the filter list is retained").
func BenchmarkAblationRuntimeFilter(b *testing.B) {
	s := benchSession(b, "openfoam")
	sel := benchSelect(b, s, "kernels")
	b.Run("patch-selected", func(b *testing.B) {
		var virtual float64
		for i := 0; i < b.N; i++ {
			virtual = benchRun(b, s, sel, capi.RunOptions{Backends: []string{"scorep"}})
		}
		b.ReportMetric(virtual, "virtual-s")
	})
	b.Run("runtime-filter", func(b *testing.B) {
		benchFilterIC = sel.IC
		var virtual float64
		for i := 0; i < b.N; i++ {
			virtual = benchRun(b, s, nil, capi.RunOptions{Backends: []string{"scorep-runtime-filter"}, PatchAll: true})
		}
		b.ReportMetric(virtual, "virtual-s")
	})
}

// BenchmarkCallGraphConstruction measures the MetaCG whole-program build
// (Fig. 2 steps 3–4), the preparation-phase cost Table I's Time column sits
// on top of.
func BenchmarkCallGraphConstruction(b *testing.B) {
	p := workload.OpenFOAM(workload.OpenFOAMOptions{Scale: 0.02, Timesteps: 2, PCGIters: 4})
	b.ResetTimer()
	var g *callgraph.Graph
	for i := 0; i < b.N; i++ {
		g = metacg.BuildWholeProgram(p, metacg.Options{})
	}
	b.ReportMetric(float64(g.Len()), "nodes")
}

// BenchmarkSessionBuild measures what a user waits on before the first
// event: generating, validating, analysing and compiling openfoam at the
// repo benchmark's scale (bench/ layer setup.session_s). B/op is the build's
// garbage plus the 45 MB a built session keeps.
func BenchmarkSessionBuild(b *testing.B) {
	b.ReportAllocs()
	var sess *capi.Session
	for i := 0; i < b.N; i++ {
		var err error
		if sess, err = capi.NewAppSession("openfoam", 0.1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sess.Graph().Len()), "nodes")
}

// BenchmarkPatching measures the xray sled patch/unpatch cycle under
// mprotect over the executable and all DSOs (§V-A/B).
func BenchmarkPatching(b *testing.B) {
	proc, err := benchSession(b, "openfoam").Build().LoadProcess()
	if err != nil {
		b.Fatal(err)
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		b.Fatal(err)
	}
	xr.SetHandler(func(tc xray.ThreadCtx, id int32, kind xray.EntryType) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := xr.PatchAll()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("nothing patched")
		}
		if _, err := xr.UnpatchAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchHTTP measures the full middleware request path: one
// iteration is one webservice request to the hot feed route — pool
// checkout, the compiled script walk (FunctionActive gate, enter/exit
// dispatch per instrumented function, virtual-clock work advances) and
// the endpoint latency accounting. ns/op divided by EventPairs×2 is the
// reported per-event cost; bench's serve_http workload gates the same
// path end to end behind real net/http.
func BenchmarkDispatchHTTP(b *testing.B) {
	const route = "GET /api/feed"
	for _, backend := range []string{string(capi.BackendNone), string(capi.BackendExtrae)} {
		b.Run(backend, func(b *testing.B) {
			session, err := capi.NewAppSession("webservice", 0)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := session.Start(nil, capi.RunOptions{
				PatchAll:    true,
				Backends:    []string{backend},
				Ranks:       1,
				HTTPWorkers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			pairs := svc.EventPairs(route)
			if pairs == 0 {
				b.Fatal("feed route compiled to no event pairs")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Do(route); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs*2), "ns/event")
		})
	}
}

// BenchmarkMPICollectives measures the simulated MPI substrate itself
// (virtual-clock synchronization), isolating simulator cost from
// measurement cost.
func BenchmarkMPICollectives(b *testing.B) {
	world, err := mpi.NewWorld(4, mpi.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = world.Run(func(r *mpi.Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := r.Allreduce(8); err != nil {
				return err
			}
		}
		return r.Finalize()
	})
	if err != nil {
		b.Fatal(err)
	}
}
