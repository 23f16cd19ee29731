// Package compiler lowers a synthetic program (internal/prog) into object
// images (internal/obj), modelling the parts of Clang/LLVM the paper's
// system interacts with:
//
//   - the inlining pass, which runs *before* the XRay machine pass — the
//     root cause of the paper's inlining-compensation problem (§V-E):
//     a fully inlined function has no sleds and usually no symbol;
//   - symbol emission: inlined functions lose their symbol unless they are
//     exported from a DSO (the paper's "symbols may be retained after
//     inlining" caveat), and hidden-visibility functions stay out of the
//     dynamic symbol table;
//   - the XRay machine pass: entry/exit sleds for every function emitted
//     into a patchable image (the DynCaPI workflow prepares every available
//     function, §IV), and the packed XRay ID each such function will carry
//     in a process loaded from the build;
//   - a build-time model for the recompilation-turnaround comparison of
//     §VII-A (a full OpenFOAM rebuild costs ~50 minutes).
package compiler

import (
	"fmt"

	"capi/internal/ic"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/xray"
)

// Options configures a build.
type Options struct {
	// XRay enables sled insertion ("-fxray-instrument") with the
	// instruction threshold at 1, so every emitted function gets sleds.
	XRay bool
	// OptLevel (2 or 3) controls the auto-inlining aggressiveness.
	// Values outside {2,3} default to 2.
	OptLevel int
	// StaticIC, when set, enables the static instrumentation mode: direct
	// measurement-hook calls are compiled into exactly the listed
	// functions (CaPI's original workflow, Fig. 2 step 7).
	StaticIC *ic.Config
}

func (o Options) withDefaults() Options {
	if o.OptLevel != 3 {
		o.OptLevel = 2
	}
	return o
}

// autoInlineMaxStatements returns the statement-count limit below which the
// compiler inlines functions even without the inline keyword.
func autoInlineMaxStatements(optLevel int) int {
	if optLevel >= 3 {
		return 10
	}
	return 6
}

// InstrBytesPerStatement scales statements to modelled instruction bytes.
const instrPerStatement = 3

// InstructionCount returns the modelled post-codegen instruction count of a
// function, which sizes its code.
func InstructionCount(f *prog.Function) int {
	return int(f.Statements)*instrPerStatement + 8
}

// FuncLayout describes where (and whether) a function landed in the build.
// It names neither the function nor its unit: Build.Layout is indexed by
// program position, and the Function at that position holds both.
type FuncLayout struct {
	EntryOffset uint64 // offset of the function within its image (if emitted)
	Size        uint64
	FuncID      uint32 // XRay function ID within its image (if HasSleds)
	EntrySled   int32  // sled indexes within the image (if HasSleds)
	ExitSled    int32
	Inlined     bool // inlined at every call site; no standalone code runs
	HasSymbol   bool // a symbol for the function exists in some image
	HasSleds    bool
	StaticInstr bool // compiled-in measurement hooks (static mode)
}

// Build is the result of compiling a program.
type Build struct {
	Prog    *prog.Program
	Options Options
	// Images holds one image per link unit, in program unit order (the
	// executable first if the program declared it first).
	Images []*obj.Image
	// Layout holds every function's placement at its position in
	// Prog.Funcs(); LayoutOf finds one by name.
	Layout []FuncLayout
	// CompileSeconds is the modelled wall-clock duration of the build.
	CompileSeconds float64

	// packed holds each sled-carrying function's packed XRay ID at its
	// program position; nil when an object got none (idErr says why).
	packed []int32
	idErr  error
}

// LayoutOf returns the placement of the named function, or nil if the
// program defines no such function.
func (b *Build) LayoutOf(name string) *FuncLayout {
	if i := b.Prog.Index(name); i >= 0 {
		return &b.Layout[i]
	}
	return nil
}

// HasSymbol implements core.SymbolOracle over all images' full symbol
// tables (the `nm` view CaPI's inlining compensation uses, §V-E).
func (b *Build) HasSymbol(name string) bool {
	l := b.LayoutOf(name)
	return l != nil && l.HasSymbol
}

// Image returns the image built for the named link unit, or nil.
func (b *Build) Image(unit string) *obj.Image {
	for _, im := range b.Images {
		if im.Name == unit {
			return im
		}
	}
	return nil
}

// ExecutableImage returns the image of the executable unit.
func (b *Build) ExecutableImage() *obj.Image {
	for _, im := range b.Images {
		if im.Exe {
			return im
		}
	}
	return nil
}

// PatchableImages returns the XRay-instrumented images (executable + DSOs
// built from application code). The paper's OpenFOAM case has 6 patchable
// DSOs besides the executable.
func (b *Build) PatchableImages() []*obj.Image {
	var out []*obj.Image
	for _, im := range b.Images {
		if im.Patchable {
			out = append(out, im)
		}
	}
	return out
}

// PackedIDAt returns the packed XRay ID the function at program position i
// carries in every process loaded from the build (xray.ObjectIDs). Functions
// without sleds have none, nor has any past xray.MaxDSOs patchable DSOs.
func (b *Build) PackedIDAt(i int) (int32, bool) {
	if b.packed == nil || !b.Layout[i].HasSleds {
		return 0, false
	}
	return b.packed[i], true
}

// PackedID is PackedIDAt for the named function; LoadProcess hands it to
// every process it loads as obj.Process.PackedID.
func (b *Build) PackedID(name string) (int32, bool) {
	if i := b.Prog.Index(name); i >= 0 {
		return b.PackedIDAt(i)
	}
	return 0, false
}

// PackedIDErr reports why the build assigned no packed IDs: an error
// wrapping xray.ErrObjectLimit past xray.MaxDSOs patchable DSOs, else nil.
func (b *Build) PackedIDErr() error { return b.idErr }

// StaticPackedIDs returns the packed XRay ID of every sled-carrying
// function by name. This is the mapping the paper proposes shipping inside
// the IC so that hidden DSO symbols can be instrumented without run-time
// name resolution (§VI-B(a)). Like xray.NewRuntime, it fails with
// xray.ErrObjectLimit past xray.MaxDSOs patchable DSOs.
func (b *Build) StaticPackedIDs() (map[string]int32, error) {
	if b.idErr != nil {
		return nil, b.idErr
	}
	out := make(map[string]int32)
	for i, f := range b.Prog.Funcs() {
		if id, ok := b.PackedIDAt(i); ok {
			out[f.Name] = id
		}
	}
	return out, nil
}

// align16 rounds up to the next multiple of 16 (function alignment).
func align16(n uint64) uint64 { return (n + 15) &^ 15 }

// Compile validates the program and builds it into object images.
func Compile(p *prog.Program, opts Options) (*Build, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	return CompileValidated(p, opts)
}

// CompileValidated is Compile for a caller that has already seen
// p.Validate succeed and has not modified the program since. It only reads p.
func CompileValidated(p *prog.Program, opts Options) (*Build, error) {
	opts = opts.withDefaults()
	b := &Build{
		Prog:    p,
		Options: opts,
		Layout:  make([]FuncLayout, p.NumFunctions()),
		packed:  make([]int32, p.NumFunctions()),
	}
	var objectIDs xray.ObjectIDs
	autoInline := autoInlineMaxStatements(opts.OptLevel)
	fns := p.Funcs()
	// The build-time model counts the distinct translation units on the
	// way, looking one up once per run of a unit's functions.
	tus, lastTU := map[string]struct{}{}, ""

	// Per-unit code generation.
	for _, u := range p.Units() {
		im := &obj.Image{
			Name:      u.Name,
			Exe:       u.Kind == prog.Executable,
			Patchable: opts.XRay && u.Kind != prog.SystemLibrary,
		}
		symbols := 0 // what is emitted is decided first: the tables are allocated once
		for _, at := range u.Funcs {
			f, lay := fns[at], &b.Layout[at]
			if len(tus) == 0 || f.TU != lastTU {
				tus[f.TU], lastTU = struct{}{}, f.TU
			}
			// The inlining decision comes before sled insertion, as in LLVM.
			lay.Inlined = (f.Inline || int(f.Statements) <= autoInline) &&
				u.Kind != prog.SystemLibrary && !f.StaticInit && !f.Virtual && !f.AddressTaken && f.Name != p.Main

			// An inlined function keeps an out-of-line copy (and hence a
			// symbol) only when it is exported from a DSO and is not a
			// vague-linkage (template-style) definition, whose copies are
			// discarded when all calls were inlined. The retained-copy
			// case is the caveat that makes the paper's symbol-absence
			// approximation imperfect (§V-E).
			lay.HasSymbol = !lay.Inlined ||
				(u.Kind == prog.SharedObject && f.Visibility == prog.Default && !f.VagueLinkage)
			if lay.HasSymbol {
				symbols++
			}
		}
		if im.Symbols = make([]obj.Symbol, 0, symbols); im.Patchable {
			im.Sleds = make([]obj.Sled, 0, 2*symbols)
		}
		var off uint64
		for _, at := range u.Funcs {
			f, lay := fns[at], &b.Layout[at]
			if !lay.HasSymbol {
				continue
			}
			name := f.Name
			instr := InstructionCount(f)
			size := align16(uint64(instr)*4 + 2*obj.SledBytes)
			lay.EntryOffset = off
			lay.Size = size
			im.Symbols = append(im.Symbols, obj.Symbol{
				Name:   name,
				Value:  off,
				Size:   size,
				Kind:   obj.SymFunc,
				Hidden: f.Visibility == prog.Hidden,
			})
			if im.Patchable {
				id := im.NumFuncIDs
				im.NumFuncIDs++
				lay.HasSleds = true
				lay.FuncID = id
				lay.EntrySled = int32(len(im.Sleds))
				im.Sleds = append(im.Sleds, obj.Sled{Offset: off, FuncID: id, Kind: obj.SledEntry})
				lay.ExitSled = int32(len(im.Sleds))
				im.Sleds = append(im.Sleds, obj.Sled{Offset: off + size - obj.SledBytes, FuncID: id, Kind: obj.SledExit})
			}
			if opts.StaticIC != nil && !lay.Inlined && u.Kind != prog.SystemLibrary && opts.StaticIC.Contains(name) {
				lay.StaticInstr = true
			}
			off += size
		}
		im.TextSize = off
		if im.TextSize == 0 {
			im.TextSize = 16 // keep empty units mappable
		}
		if err := im.Finalize(); err != nil {
			return nil, fmt.Errorf("compiler: finalizing %s: %w", u.Name, err)
		}
		// The executable's ID is fixed, so image order is load order.
		if im.Patchable && b.idErr == nil {
			if objID, err := objectIDs.Next(im); err != nil {
				b.packed, b.idErr = nil, fmt.Errorf("compiler: static IDs for %s: %w", im.Name, err)
			} else {
				for _, at := range u.Funcs {
					b.packed[at] = int32(uint32(objID)<<24 | b.Layout[at].FuncID)
				}
			}
		}
		b.Images = append(b.Images, im)
	}

	b.CompileSeconds = buildTimeSeconds(len(tus), p.TotalStatements())
	return b, nil
}

// buildTimeSeconds models the wall-clock cost of a full (re)build: a small
// per-TU constant plus a per-statement cost. Calibrated so that LULESH
// rebuilds in tens of seconds and full-scale OpenFOAM in ~50 minutes
// (§VII-A).
func buildTimeSeconds(tus, statements int) float64 {
	return 1.5 + 0.05*float64(tus) + 0.001*float64(statements)
}

// LoadProcess creates a process from the build: the executable is mapped,
// then every shared object in build order, all before any XRay runtime
// exists. System libraries are loaded too — they resolve symbols but are
// not patchable. The process looks function names up in the build's
// packed-ID table (PackedID).
func (b *Build) LoadProcess() (*obj.Process, error) {
	exe := b.ExecutableImage()
	if exe == nil {
		return nil, fmt.Errorf("compiler: build has no executable image")
	}
	var dsos []*obj.Image
	for _, im := range b.Images {
		if !im.Exe {
			dsos = append(dsos, im)
		}
	}
	p, err := obj.NewProcess(exe, dsos...)
	if err != nil {
		return nil, err
	}
	p.PackedID = b.PackedID
	return p, nil
}
