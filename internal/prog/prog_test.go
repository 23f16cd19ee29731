package prog

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// buildValid constructs a small well-formed program used by several tests.
func buildValid(t *testing.T) *Program {
	t.Helper()
	p := New("app", "main")
	p.MustAddUnit("app.exe", Executable)
	p.MustAddUnit("libfoo.so", SharedObject)
	p.MustAddUnit("libmpi.so", SystemLibrary)

	p.MustAddFunc(&Function{Name: "MPI_Allreduce", Unit: "libmpi.so", SystemHeader: true})
	p.MustAddFunc(&Function{
		Name: "main", Unit: "app.exe", TU: "main.cc", Statements: 10,
		Ops: []Op{Work(100), Call("compute", 2), MPICall("MPI_Allreduce", 8)},
	})
	p.MustAddFunc(&Function{
		Name: "compute", Unit: "libfoo.so", TU: "foo.cc", Statements: 30, Flops: 50, LoopDepth: 2,
		Ops: []Op{Work(500)},
	})
	return p
}

func TestValidProgram(t *testing.T) {
	p := buildValid(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumFunctions() != 3 {
		t.Fatalf("NumFunctions = %d, want 3", p.NumFunctions())
	}
	if got := p.Func("compute").Flops; got != 50 {
		t.Fatalf("compute flops = %d, want 50", got)
	}
}

func TestDuplicateUnit(t *testing.T) {
	p := New("app", "main")
	if _, err := p.AddUnit("u", Executable); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddUnit("u", SharedObject); err == nil {
		t.Fatal("expected duplicate unit error")
	}
}

func TestDuplicateFunction(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	if err := p.AddFunc(&Function{Name: "f", Unit: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(&Function{Name: "f", Unit: "u"}); err == nil {
		t.Fatal("expected duplicate function error")
	}
}

func TestFunctionUnknownUnit(t *testing.T) {
	p := New("app", "main")
	if err := p.AddFunc(&Function{Name: "f", Unit: "nope"}); err == nil {
		t.Fatal("expected unknown unit error")
	}
}

func TestValidateMissingMain(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "entry point") {
		t.Fatalf("expected entry point error, got %v", err)
	}
}

func TestValidateUndefinedCallee(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{Call("ghost", 1)}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("expected undefined callee error, got %v", err)
	}
}

func TestValidateCallCounts(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "f", Unit: "u"})
	// A zero-count call is a legal static-only edge (see StaticCall)...
	p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{StaticCall("f")}})
	if err := p.Validate(); err != nil {
		t.Fatalf("static-only call should validate, got %v", err)
	}
	// ...but a negative count is a generator bug.
	p2 := New("app", "main")
	p2.MustAddUnit("u", Executable)
	p2.MustAddFunc(&Function{Name: "f", Unit: "u"})
	p2.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{Call("f", -1)}})
	if err := p2.Validate(); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("expected call count error, got %v", err)
	}
}

func TestValidateVirtual(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{VCall("Base::solve", 1)}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no implementations") {
		t.Fatalf("expected virtual error, got %v", err)
	}
	p.MustAddFunc(&Function{Name: "Derived::solve", Unit: "u", Virtual: true})
	p.RegisterVirtual("Base::solve", "Derived::solve")
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after registering impl: %v", err)
	}
	// A registered implementation that does not exist must be caught.
	p.RegisterVirtual("Base::solve", "Phantom::solve")
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "Phantom") {
		t.Fatalf("expected phantom impl error, got %v", err)
	}
}

// TestRuntimeTargets: a runtime target lives in the side table of the
// program whose VCallTo or PtrCallTo made the op, Validate checks it names a
// defined function, and an op carrying another program's target is refused.
func TestRuntimeTargets(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "A::solve", Unit: "u", Virtual: true})
	p.MustAddFunc(&Function{Name: "B::solve", Unit: "u", Virtual: true})
	p.MustAddFunc(&Function{Name: "cb", Unit: "u"})
	p.RegisterVirtual("Base::solve", "A::solve")
	p.RegisterVirtual("Base::solve", "B::solve")
	p.RegisterPointerTarget("hook", "cb", true)
	vcall, pcall := p.VCallTo("Base::solve", "B::solve", 2), p.PtrCallTo("hook", "cb", 3)
	if !vcall.Virtual || vcall.Count() != 2 || p.RuntimeTarget(vcall) != "B::solve" {
		t.Fatalf("VCallTo: %+v, target %q", vcall, p.RuntimeTarget(vcall))
	}
	if !pcall.ViaPointer || pcall.Count() != 3 || p.RuntimeTarget(pcall) != "cb" {
		t.Fatalf("PtrCallTo: %+v, target %q", pcall, p.RuntimeTarget(pcall))
	}
	if got := p.RuntimeTarget(VCall("Base::solve", 1)); got != "" {
		t.Fatalf("VCall has runtime target %q", got)
	}
	main := p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{vcall, pcall}})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	main.Ops = append(main.Ops, p.VCallTo("Base::solve", "Phantom::solve", 1))
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "Phantom") {
		t.Fatalf("expected undefined runtime target error, got %v", err)
	}

	other := New("other", "main")
	other.MustAddUnit("u", Executable)
	other.MustAddFunc(&Function{Name: "A::solve", Unit: "u", Virtual: true})
	other.RegisterVirtual("Base::solve", "A::solve")
	other.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{main.Ops[2]}})
	if err := other.Validate(); err == nil || !strings.Contains(err.Error(), "another program") {
		t.Fatalf("expected foreign runtime target error, got %v", err)
	}
}

func TestValidatePointerSlot(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{PtrCall("factory", 1)}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no targets") {
		t.Fatalf("expected pointer slot error, got %v", err)
	}
	p.MustAddFunc(&Function{Name: "makeSolver", Unit: "u"})
	p.RegisterPointerTarget("factory", "makeSolver", true)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after registering target: %v", err)
	}
	if !p.StaticPointerSlots["factory"] {
		t.Fatal("factory slot should be statically resolvable")
	}
}

func TestValidateMPIRequiresDeclaredFunction(t *testing.T) {
	p := New("app", "main")
	p.MustAddUnit("u", Executable)
	p.MustAddFunc(&Function{Name: "main", Unit: "u", Ops: []Op{MPICall("MPI_Barrier", 0)}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "MPI_Barrier") {
		t.Fatalf("expected undeclared MPI error, got %v", err)
	}
}

func TestDisplayFallback(t *testing.T) {
	f := &Function{Name: "_Z4Amulv"}
	if f.Display() != "_Z4Amulv" {
		t.Fatalf("Display fallback = %q", f.Display())
	}
	f.DisplayName = "Amul()"
	if f.Display() != "Amul()" {
		t.Fatalf("Display = %q", f.Display())
	}
}

func TestTranslationUnits(t *testing.T) {
	p := buildValid(t)
	tus := p.ByTU()
	if len(tus) != 3 || tus[0].Name != "" || tus[1].Name != "foo.cc" || tus[2].Name != "main.cc" {
		t.Fatalf("ByTU = %v, want the units \"\", foo.cc and main.cc", tus)
	}
	if fns := tus[1].Funcs; len(fns) != 1 || p.Funcs()[fns[0]].Name != "compute" {
		t.Fatalf("foo.cc holds positions %v, want compute's alone", fns)
	}
}

// TestByTUReadsTUAtCallTime: the grouping is sorted by unit name, keeps
// insertion order inside a unit, follows a TU a generator sets after
// AddFunc, and survives Reserve on a program that already has functions.
func TestByTUReadsTUAtCallTime(t *testing.T) {
	p := buildValid(t)
	p.Reserve(16)
	late := p.MustAddFunc(&Function{Name: "helper", Unit: "app.exe", TU: "main.cc"})
	p.MustAddFunc(&Function{Name: "kernel", Unit: "libfoo.so", TU: "foo.cc"})
	check := func(want map[string][]string) {
		t.Helper()
		tus := p.ByTU()
		if len(tus) != len(want) || !sort.SliceIsSorted(tus, func(i, j int) bool { return tus[i].Name < tus[j].Name }) {
			t.Fatalf("ByTU = %v, want the %d units of %v sorted", tus, len(want), want)
		}
		for _, tu := range tus {
			var names []string
			for _, i := range tu.Funcs {
				names = append(names, p.Funcs()[i].Name)
			}
			if !slices.Equal(names, want[tu.Name]) {
				t.Fatalf("unit %q holds %v, want %v", tu.Name, names, want[tu.Name])
			}
		}
	}
	check(map[string][]string{"": {"MPI_Allreduce"}, "main.cc": {"main", "helper"}, "foo.cc": {"compute", "kernel"}})
	late.TU = "foo.cc"
	check(map[string][]string{"": {"MPI_Allreduce"}, "main.cc": {"main"}, "foo.cc": {"compute", "helper", "kernel"}})
	if p.Func("main") == nil || p.NumFunctions() != 5 || len(p.Funcs()) != 5 {
		t.Fatal("Reserve lost functions")
	}
}

func TestTotalStatements(t *testing.T) {
	p := buildValid(t)
	if got := p.TotalStatements(); got != 40 {
		t.Fatalf("TotalStatements = %d, want 40", got)
	}
}

func TestOpConstructors(t *testing.T) {
	if op := Work(7); op.Kind != OpWork || op.Work() != 7 || op.Count() != 0 || op.Bytes() != 0 {
		t.Fatalf("Work: %+v", op)
	}
	if op := Call("f", 3); op.Kind != OpCall || op.Callee != "f" || op.Count() != 3 || op.Work() != 0 || op.Virtual || op.ViaPointer {
		t.Fatalf("Call: %+v", op)
	}
	if op := VCall("b", 2); !op.Virtual || op.ViaPointer {
		t.Fatalf("VCall: %+v", op)
	}
	if op := PtrCall("s", 2); !op.ViaPointer || op.Virtual {
		t.Fatalf("PtrCall: %+v", op)
	}
	if op := MPICall("MPI_Send", 64); op.Kind != OpMPI || op.Callee != "MPI_Send" || op.Bytes() != 64 || op.Count() != 0 {
		t.Fatalf("MPICall: %+v", op)
	}
}

func TestUnitKindString(t *testing.T) {
	cases := map[UnitKind]string{
		Executable:    "executable",
		SharedObject:  "shared-object",
		SystemLibrary: "system-library",
		UnitKind(9):   "UnitKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("UnitKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
