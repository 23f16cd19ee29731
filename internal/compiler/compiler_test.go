package compiler

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"capi/internal/ic"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/xray"
)

// buildProg constructs a program exercising all symbol/inline/sled rules:
//
//	exe:   main (large), tiny (auto-inline), marked (inline kw, large),
//	       looper (small but has a loop), taken (small, address-taken)
//	dso:   exported_inline (inline kw, Default vis), hidden_inline
//	       (inline kw, Hidden vis), dso_fn (large), init fn (hidden)
//	sys:   MPI_Send
func buildProg(t *testing.T) *prog.Program {
	t.Helper()
	p := prog.New("app", "main")
	p.MustAddUnit("app.exe", prog.Executable)
	p.MustAddUnit("lib.so", prog.SharedObject)
	p.MustAddUnit("libmpi.so", prog.SystemLibrary)

	p.MustAddFunc(&prog.Function{Name: "MPI_Send", Unit: "libmpi.so", Statements: 3})
	p.MustAddFunc(&prog.Function{
		Name: "main", Unit: "app.exe", Statements: 50,
		Ops: []prog.Op{prog.Call("tiny", 1), prog.Call("dso_fn", 1), prog.MPICall("MPI_Send", 8)},
	})
	p.MustAddFunc(&prog.Function{Name: "tiny", Unit: "app.exe", Statements: 3})
	p.MustAddFunc(&prog.Function{Name: "marked", Unit: "app.exe", Statements: 40, Inline: true})
	p.MustAddFunc(&prog.Function{Name: "looper", Unit: "app.exe", Statements: 30, LoopDepth: 2})
	p.MustAddFunc(&prog.Function{Name: "taken", Unit: "app.exe", Statements: 2, AddressTaken: true})
	p.MustAddFunc(&prog.Function{Name: "exported_inline", Unit: "lib.so", Statements: 4, Inline: true})
	p.MustAddFunc(&prog.Function{Name: "hidden_inline", Unit: "lib.so", Statements: 4, Inline: true, Visibility: prog.Hidden})
	p.MustAddFunc(&prog.Function{Name: "dso_fn", Unit: "lib.so", Statements: 60})
	p.MustAddFunc(&prog.Function{Name: "_GLOBAL__sub_I_lib", Unit: "lib.so", Statements: 5, StaticInit: true, Visibility: prog.Hidden})
	return p
}

func TestCompileInliningAndSymbols(t *testing.T) {
	b, err := Compile(buildProg(t), Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	// main: never inlined.
	if b.LayoutOf("main").Inlined || !b.HasSymbol("main") {
		t.Fatal("main must not be inlined")
	}
	// tiny: auto-inlined in the exe -> no symbol.
	if !b.LayoutOf("tiny").Inlined || b.HasSymbol("tiny") {
		t.Fatalf("tiny layout = %+v", b.LayoutOf("tiny"))
	}
	// marked: inline keyword wins regardless of size -> inlined, no symbol.
	if !b.LayoutOf("marked").Inlined || b.HasSymbol("marked") {
		t.Fatal("marked should be inlined away")
	}
	// taken: address-taken suppresses inlining.
	if b.LayoutOf("taken").Inlined {
		t.Fatal("address-taken function must not be inlined")
	}
	// exported_inline: inlined but the DSO keeps an out-of-line copy.
	ei := b.LayoutOf("exported_inline")
	if !ei.Inlined || !ei.HasSymbol {
		t.Fatalf("exported_inline layout = %+v", ei)
	}
	// hidden_inline: inlined, hidden -> no copy, no symbol.
	if b.HasSymbol("hidden_inline") {
		t.Fatal("hidden inlined function should lose its symbol")
	}
	// static initializer: emitted, hidden symbol.
	im := b.Image("lib.so")
	i := slices.IndexFunc(im.Symbols, func(s obj.Symbol) bool { return s.Name == "_GLOBAL__sub_I_lib" })
	if i < 0 || !im.Symbols[i].Hidden {
		t.Fatalf("static init symbol at %d of %+v, want a hidden one", i, im.Symbols)
	}
	// system library: not patchable, no sleds, symbols present.
	sys := b.Image("libmpi.so")
	if sys.Patchable || len(sys.Sleds) != 0 {
		t.Fatal("system library must not be instrumented")
	}
	if !b.HasSymbol("MPI_Send") {
		t.Fatal("system symbols must be present")
	}
}

func TestCompileSleds(t *testing.T) {
	b, err := Compile(buildProg(t), Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	exe := b.ExecutableImage()
	if exe == nil || exe.Name != "app.exe" {
		t.Fatal("executable image missing")
	}
	// Every emitted exe function gets sleds at threshold 1.
	for _, name := range []string{"main", "looper", "taken"} {
		lay := b.LayoutOf(name)
		if !lay.HasSleds {
			t.Fatalf("%s should have sleds", name)
		}
		entry := exe.Sleds[lay.EntrySled]
		exit := exe.Sleds[lay.ExitSled]
		if entry.Kind != obj.SledEntry || exit.Kind != obj.SledExit {
			t.Fatalf("%s sled kinds wrong", name)
		}
		if entry.Offset != lay.EntryOffset {
			t.Fatalf("%s entry sled at %#x, function at %#x", name, entry.Offset, lay.EntryOffset)
		}
		if exit.Offset != lay.EntryOffset+lay.Size-obj.SledBytes {
			t.Fatalf("%s exit sled misplaced", name)
		}
		if entry.FuncID != exit.FuncID || entry.FuncID != lay.FuncID {
			t.Fatalf("%s func ids inconsistent", name)
		}
	}
	// Function IDs are dense per image.
	if exe.NumFuncIDs == 0 || int(exe.NumFuncIDs)*2 != len(exe.Sleds) {
		t.Fatalf("func ids %d vs sleds %d", exe.NumFuncIDs, len(exe.Sleds))
	}
	// Patchable images: exe + lib.so.
	if got := len(b.PatchableImages()); got != 2 {
		t.Fatalf("patchable images = %d, want 2", got)
	}
	// Every function emitted into a patchable image gets sleds.
	for i, f := range b.Prog.Funcs() {
		if lay := &b.Layout[i]; b.Image(f.Unit).Patchable && lay.HasSymbol != lay.HasSleds {
			t.Errorf("%s: symbol %v, sleds %v in a patchable image", f.Name, lay.HasSymbol, lay.HasSleds)
		}
	}
}

func TestCompileWithoutXRay(t *testing.T) {
	b, err := Compile(buildProg(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range b.Images {
		if im.Patchable || len(im.Sleds) != 0 {
			t.Fatalf("vanilla build has sleds in %s", im.Name)
		}
	}
	if id, ok := b.PackedID("main"); ok {
		t.Fatalf("a vanilla build gives main packed ID %#x", id)
	}
}

func TestCompileStaticIC(t *testing.T) {
	cfg := ic.New("app", "s", []string{"main", "tiny", "dso_fn"})
	b, err := Compile(buildProg(t), Options{XRay: false, StaticIC: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !b.LayoutOf("main").StaticInstr || !b.LayoutOf("dso_fn").StaticInstr {
		t.Fatal("static instrumentation flags missing")
	}
	// tiny is inlined: static instrumentation cannot hook it.
	if b.LayoutOf("tiny").StaticInstr {
		t.Fatal("inlined function must not be statically instrumented")
	}
}

func TestCompileTimeModelScalesWithSize(t *testing.T) {
	small, err := Compile(buildProg(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := prog.New("big", "main")
	big.MustAddUnit("e", prog.Executable)
	big.MustAddFunc(&prog.Function{Name: "main", Unit: "e", Statements: 100000, TU: "m.cc"})
	bb, err := Compile(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bb.CompileSeconds <= small.CompileSeconds {
		t.Fatalf("compile time should grow with program size: %v vs %v", bb.CompileSeconds, small.CompileSeconds)
	}
}

func TestLoadProcess(t *testing.T) {
	b, err := Compile(buildProg(t), Options{XRay: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	objs := proc.Objects()
	if len(objs) != 3 {
		t.Fatalf("loaded objects = %d, want 3", len(objs))
	}
	if objs[0].Image.Name != "app.exe" {
		t.Fatal("executable must be first")
	}
	if proc.Object("lib.so") == nil || proc.Object("libmpi.so") == nil {
		t.Fatal("DSOs missing")
	}
	// The process looks names up in the build's packed-ID table.
	for _, name := range []string{"main", "dso_fn", "MPI_Send", "tiny", "no_such_function"} {
		id, ok := proc.PackedID(name)
		if want, wok := b.PackedID(name); id != want || ok != wok {
			t.Errorf("process looks up %s as %#x (%v), the build as %#x (%v)", name, id, ok, want, wok)
		}
	}
	if _, ok := proc.PackedID("dso_fn"); !ok {
		t.Error("dso_fn has no packed ID")
	}
}

func TestInstructionCount(t *testing.T) {
	f := &prog.Function{Statements: 10}
	if got := InstructionCount(f); got != 38 {
		t.Fatalf("InstructionCount = %d, want 38", got)
	}
}

func TestOptLevelInlining(t *testing.T) {
	p := prog.New("o", "main")
	p.MustAddUnit("e", prog.Executable)
	p.MustAddFunc(&prog.Function{Name: "main", Unit: "e", Statements: 50})
	p.MustAddFunc(&prog.Function{Name: "mid", Unit: "e", Statements: 8}) // between O2(6) and O3(10)
	b2, err := Compile(p, Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	b3, err := Compile(p, Options{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b2.LayoutOf("mid").Inlined {
		t.Fatal("O2 should not inline an 8-statement function")
	}
	if !b3.LayoutOf("mid").Inlined {
		t.Fatal("O3 should inline an 8-statement function")
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := prog.New("bad", "main") // main undefined
	p.MustAddUnit("e", prog.Executable)
	if _, err := Compile(p, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestStaticPackedIDsObjectLimit: the static IDs follow xray.NewRuntime's
// policy up to the last object ID, and past xray.MaxDSOs patchable DSOs
// both refuse the program with xray.ErrObjectLimit (as does PackedIDErr,
// which Session.AttachStaticIDs checks) — no DSO wraps to the executable's
// object 0.
func TestStaticPackedIDsObjectLimit(t *testing.T) {
	compile := func(dsos int) *Build {
		t.Helper()
		p := prog.New("many", "main")
		p.MustAddUnit("app.exe", prog.Executable)
		p.MustAddFunc(&prog.Function{Name: "main", Unit: "app.exe", Statements: 50})
		for i := range dsos {
			unit := fmt.Sprintf("lib%d.so", i)
			p.MustAddUnit(unit, prog.SharedObject)
			p.MustAddFunc(&prog.Function{Name: fmt.Sprintf("f%d", i), Unit: unit, Statements: 50})
		}
		b, err := Compile(p, Options{XRay: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := compile(xray.MaxDSOs)
	ids, err := b.StaticPackedIDs()
	if err != nil || b.PackedIDErr() != nil {
		t.Fatal(err, b.PackedIDErr())
	}
	last := fmt.Sprintf("f%d", xray.MaxDSOs-1)
	if object, _ := xray.UnpackID(ids[last]); object != xray.MaxDSOs {
		t.Fatalf("%s has object ID %d, want %d", last, object, xray.MaxDSOs)
	}
	proc, err := b.LoadProcess()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := xray.NewRuntime(proc)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := rt.ObjectID(proc.Object(fmt.Sprintf("lib%d.so", xray.MaxDSOs-1))); !ok || id != xray.MaxDSOs {
		t.Fatalf("the runtime gives the last DSO object ID %d (%v), want %d", id, ok, xray.MaxDSOs)
	}

	b = compile(xray.MaxDSOs + 1)
	if ids, err := b.StaticPackedIDs(); !errors.Is(err, xray.ErrObjectLimit) {
		t.Fatalf("%d DSOs: StaticPackedIDs returned %d IDs and error %v, want %v", xray.MaxDSOs+1, len(ids), err, xray.ErrObjectLimit)
	}
	if err := b.PackedIDErr(); !errors.Is(err, xray.ErrObjectLimit) {
		t.Fatalf("%d DSOs: PackedIDErr %v, want %v", xray.MaxDSOs+1, err, xray.ErrObjectLimit)
	}
	if proc, err = b.LoadProcess(); err != nil {
		t.Fatal(err)
	}
	if _, err := xray.NewRuntime(proc); !errors.Is(err, xray.ErrObjectLimit) {
		t.Fatalf("%d DSOs: NewRuntime error %v, want %v", xray.MaxDSOs+1, err, xray.ErrObjectLimit)
	}
}
