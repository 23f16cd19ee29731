package workload

import (
	"fmt"
	"testing"

	"capi/internal/callgraph"
	"capi/internal/compiler"
	"capi/internal/core"
	"capi/internal/metacg"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/prog"
)

func TestQuickstartValid(t *testing.T) {
	p := Quickstart()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumFunctions() < 30 {
		t.Fatalf("quickstart has %d functions", p.NumFunctions())
	}
	g := metacg.BuildWholeProgram(p)
	if g.Main != "main" {
		t.Fatal("main missing")
	}
	if !g.HasEdge("exchange_halo", "MPI_Sendrecv") {
		t.Fatal("halo exchange edge missing")
	}
}

func TestQuickstartDeterministic(t *testing.T) {
	a, b := Quickstart(), Quickstart()
	if a.NumFunctions() != b.NumFunctions() {
		t.Fatal("quickstart generator not deterministic")
	}
	fa, fb := a.Funcs(), b.Funcs()
	for i := range fa {
		if fa[i].Name != fb[i].Name {
			t.Fatalf("function order differs at %d: %s vs %s", i, fa[i].Name, fb[i].Name)
		}
	}
}

func TestLuleshStructure(t *testing.T) {
	p := Lulesh(LuleshOptions{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's call graph for LULESH has 3,360 nodes.
	if got := p.NumFunctions(); got != 3360 {
		t.Fatalf("lulesh functions = %d, want 3360", got)
	}
	// Single executable, no application DSOs.
	dsos := 0
	for _, u := range p.Units() {
		if u.Kind == prog.SharedObject {
			dsos++
		}
	}
	if dsos != 0 {
		t.Fatalf("lulesh has %d DSOs, want 0", dsos)
	}
	// The leapfrog chain exists.
	g := metacg.BuildWholeProgram(p)
	for _, e := range [][2]string{
		{"main", "LagrangeLeapFrog"},
		{"LagrangeLeapFrog", "LagrangeNodal"},
		{"LagrangeNodal", "CalcForceForNodes"},
		{"CalcForceForNodes", "CommSBN"},
		{"CommSBN", "CommSend"},
		{"CommSend", "SendPlane"},
		{"SendPlane", "MPI_Send"},
		{"CommRecv", "PostRecvPlane"},
		{"PostRecvPlane", "MPI_Irecv"},
		{"TimeIncrement", "ReduceMinDt"},
		{"ReduceMinDt", "MPI_Allreduce"},
	} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v missing", e)
		}
	}
}

func TestLuleshSmallGraphOption(t *testing.T) {
	p := Lulesh(LuleshOptions{CGNodes: 500, Timesteps: 3})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumFunctions(); got < 200 || got > 600 {
		t.Fatalf("small lulesh = %d functions", got)
	}
}

func TestLuleshCompilesAtO3(t *testing.T) {
	p := Lulesh(LuleshOptions{CGNodes: 800, Timesteps: 3})
	b, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: LuleshOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	// Small leaf kernels are auto-inlined at -O3.
	if !b.LayoutOf("CalcPressureForElems").Inlined {
		t.Fatal("CalcPressureForElems should be inlined at -O3")
	}
	if b.HasSymbol("CalcPressureForElems") {
		t.Fatal("inlined exe function should lose its symbol")
	}
	// Large mids keep sleds.
	if !b.LayoutOf("IntegrateStressForElems").HasSleds {
		t.Fatal("IntegrateStressForElems should carry sleds")
	}
}

func TestOpenFOAMStructure(t *testing.T) {
	p := OpenFOAM(OpenFOAMOptions{Scale: 0.02, Timesteps: 2, PCGIters: 5})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Six patchable DSOs (§VI).
	dsos := 0
	for _, u := range p.Units() {
		if u.Kind == prog.SharedObject {
			dsos++
		}
	}
	if dsos != 6 {
		t.Fatalf("openfoam DSOs = %d, want 6", dsos)
	}
	// Node count scales.
	want := 8213 // 410,666 × 0.02
	got := p.NumFunctions()
	if got < want-ofModuleSize-100 || got > want+ofModuleSize+100 {
		t.Fatalf("functions = %d, want ≈ %d", got, want)
	}
	// Listing 3 chain present in the static graph.
	g := metacg.BuildWholeProgram(p)
	for _, e := range [][2]string{
		{"Foam::fvMatrix::solve", "Foam::fvMesh::solve"},
		{"Foam::fvMesh::solve", "Foam::fvMatrix::solveSegregatedOrCoupled"},
		{"Foam::fvMatrix::solveSegregatedOrCoupled", "Foam::fvMatrix::solveSegregated"},
		{"Foam::fvMatrix::solveSegregated", "Foam::PCG::scalarSolve"},
		{"Foam::PCG::scalarSolve", "Foam::lduMatrix::Amul"},
		{"Foam::lduMatrix::sumProd", "MPI_Allreduce"},
		{"Foam::Pstream::exchange", "Foam::UOPstream::writeProcPatch"},
		{"Foam::UOPstream::writeProcPatch", "Foam::UOPstream::write"},
		{"Foam::UOPstream::write", "MPI_Send"},
		{"Foam::UIPstream::read", "MPI_Irecv"},
		// The untaken consensus-exchange branch still contributes static
		// edges (second callers for the coarse selector).
		{"Foam::Pstream::exchangeConsensus", "Foam::UOPstream::write"},
	} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v missing", e)
		}
	}
	// Virtual over-approximation: the solver base fans out to all four.
	if !g.HasEdge("Foam::fvMatrix::solveSegregated", "Foam::GAMG::scalarSolve") {
		t.Fatal("virtual over-approximation edge to GAMG missing")
	}
	// Pre-init helpers have static edges to Pstream::exchange via the
	// pointer slot, but at run time call the probe (not resolved in CG).
	if !g.HasEdge("Foam::argList::parRunSetup_00", "Foam::Pstream::exchange") {
		t.Fatal("static pointer edge missing")
	}
}

func TestOpenFOAMHiddenSymbolsScale(t *testing.T) {
	p := OpenFOAM(OpenFOAMOptions{Scale: 0.05, Timesteps: 1, PCGIters: 2})
	b, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: OpenFOAMOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	hidden := 0
	for _, im := range b.Images {
		if im.Exe || !im.Patchable {
			continue
		}
		for _, s := range im.Symbols {
			if s.Hidden && s.Kind == obj.SymFunc {
				hidden++
			}
		}
	}
	want := 72 // 1,444 × 0.05
	if hidden < want-10 || hidden > want+10 {
		t.Fatalf("hidden DSO symbols = %d, want ≈ %d", hidden, want)
	}
}

func TestOpenFOAMLargestObjectIsLibOpenFOAM(t *testing.T) {
	p := OpenFOAM(OpenFOAMOptions{Scale: 0.05, Timesteps: 1, PCGIters: 2})
	b, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: OpenFOAMOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	var largest *obj.Image
	for _, im := range b.PatchableImages() {
		if im.Exe {
			continue
		}
		if largest == nil || im.NumFuncIDs > largest.NumFuncIDs {
			largest = im
		}
	}
	if largest == nil || largest.Name != "libOpenFOAM.so" {
		t.Fatalf("largest DSO = %v", largest)
	}
}

func TestOpenFOAMRuns(t *testing.T) {
	p := OpenFOAM(OpenFOAMOptions{Scale: 0.01, Timesteps: 2, PCGIters: 4})
	b, err := compiler.Compile(p, compiler.Options{XRay: false, OptLevel: OpenFOAMOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestLuleshMPISelectionShape(t *testing.T) {
	p := Lulesh(LuleshOptions{Timesteps: 2})
	g := metacg.BuildWholeProgram(p)
	b, err := compiler.Compile(p, compiler.Options{XRay: true, OptLevel: LuleshOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(g)
	res, err := eng.RunSource(`!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`, core.Options{Symbols: b})
	if err != nil {
		t.Fatal(err)
	}
	pre := res.Pre.Count()
	post := res.Selected.Count()
	// Paper: 19 pre, 12 post. Allow the generator some slack.
	if pre < 12 || pre > 30 {
		t.Fatalf("mpi pre = %d (%v)", pre, res.Pre.Names())
	}
	if post >= pre || post < 8 {
		t.Fatalf("mpi post = %d of pre %d", post, pre)
	}
	for _, want := range []string{"main", "CommSBN", "CommSend", "CommRecv"} {
		if !hasName(res.Pre, want) {
			t.Fatalf("mpi selection missing %s", want)
		}
	}
	if hasName(res.Pre, "IntegrateStressForElems") {
		t.Fatal("pure compute kernel must not be in the mpi selection")
	}
}

// Run is exercised via TestOpenFOAMRuns too; this covers a LULESH build.
func TestRunVanillaLulesh(t *testing.T) {
	p := Lulesh(LuleshOptions{CGNodes: 600, Timesteps: 2})
	b, err := compiler.Compile(p, compiler.Options{OptLevel: LuleshOptLevel})
	if err != nil {
		t.Fatal(err)
	}
	seconds, err := Run(b, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seconds <= 0 {
		t.Fatal("no time elapsed")
	}
	_ = mpi.DefaultCostModel()
}

// TestGeneratorsValid holds the generators' invariant: every program they
// make passes prog.Validate, at every size the tests, the CLI and the repo
// benchmark ask for (openfoam 0.05 and 0.1 are the benchmark's, 1.0 the
// paper's). The generators do not validate their own output; NewSession
// validates what it is given, once.
func TestGeneratorsValid(t *testing.T) {
	programs := map[string]func() *prog.Program{
		"quickstart": Quickstart,
		"webservice": Webservice,
	}
	for _, o := range []LuleshOptions{{}, {CGNodes: 500, Timesteps: 3}, {CGNodes: 600, Timesteps: 2}, {CGNodes: 800, Timesteps: 3}} {
		programs[fmt.Sprintf("lulesh %+v", o)] = func() *prog.Program { return Lulesh(o) }
	}
	scales := []float64{0.01, 0.02, 0.05, 0.1}
	if !testing.Short() {
		scales = append(scales, 1.0)
	}
	for _, scale := range scales {
		programs[fmt.Sprintf("openfoam@%v", scale)] = func() *prog.Program { return OpenFOAM(OpenFOAMOptions{Scale: scale}) }
	}
	for name, generate := range programs {
		if err := generate().Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// hasName reports membership by node name.
func hasName(s *callgraph.Set, name string) bool { return s.Has(s.Graph().Node(name)) }
