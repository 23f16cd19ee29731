// Package prog defines the synthetic program model that stands in for the
// C++ source code of the paper's target applications (LULESH, OpenFOAM).
//
// A Program is a set of link units (one executable, any number of shared or
// system libraries), each containing functions grouped into translation
// units. Every function carries
//
//   - the static metadata the CaPI selectors operate on (statement count,
//     flops, loop depth, inline keyword, system-header origin, virtuality,
//     symbol visibility), and
//   - an executable body: an ordered list of operations (self work in
//     virtual nanoseconds, calls to other functions, MPI operations) that
//     the execution engine interprets.
//
// A session keeps its program for life, so an Op is 32 bytes: the callee,
// one operand its kind reads (Work, Count or Bytes), and a handle into the
// program's side table of the rare runtime targets (Program.RuntimeTarget).
// Names resolve through an open-addressed table of 4-byte slots, two a
// function, compared against the functions' own names: no map keyed by name.
//
// The compiler (internal/compiler) lowers a Program into object images with
// symbol tables and XRay sleds; MetaCG (internal/metacg) constructs the
// whole-program call graph from it.
package prog

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
)

// UnitKind classifies a link unit.
type UnitKind int

const (
	// Executable is the main program binary.
	Executable UnitKind = iota
	// SharedObject is a DSO built from the application's own sources and
	// therefore compiled with XRay instrumentation (patchable).
	SharedObject
	// SystemLibrary is a pre-built library (libmpi, libc, ...) that is not
	// compiled with XRay and can never be patched.
	SystemLibrary
)

func (k UnitKind) String() string {
	switch k {
	case Executable:
		return "executable"
	case SharedObject:
		return "shared-object"
	case SystemLibrary:
		return "system-library"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// Visibility is the ELF symbol visibility of a function.
type Visibility uint8

const (
	// Default visibility: the symbol is exported and appears in the
	// dynamic symbol table of a shared object.
	Default Visibility = iota
	// Hidden visibility: the symbol does not appear in the dynamic symbol
	// table. The paper's DynCaPI cannot resolve such functions (§VI-B).
	Hidden
)

// OpKind discriminates the operations a function body may perform.
type OpKind uint8

const (
	// OpWork advances the executing rank's virtual clock.
	OpWork OpKind = iota
	// OpCall invokes another function (possibly repeatedly, possibly via
	// virtual dispatch or a function pointer).
	OpCall
	// OpMPI performs a simulated MPI operation via internal/mpi.
	OpMPI
)

// Op is one operation in a function body, 32 bytes (see the package doc).
type Op struct {
	// Callee is the function the op reaches: for OpCall the direct callee,
	// the virtual base method or the pointer slot; for OpMPI the MPI
	// function, e.g. "MPI_Allreduce", which also names the operation.
	Callee string

	n      int64 // the kind's operand: Work, Count or Bytes
	target int32 // 1 + index into the program's runtime targets; 0 for none

	Kind       OpKind
	Virtual    bool // OpCall: virtual dispatch through base method Callee
	ViaPointer bool // OpCall: indirect call through pointer slot Callee
}

// Work returns an OpWork's virtual nanoseconds of self time, else 0.
func (op Op) Work() int64 { return op.operand(OpWork) }

// Count returns an OpCall's number of consecutive invocations, else 0.
func (op Op) Count() int { return int(op.operand(OpCall)) }

// Bytes returns an OpMPI's payload size for the cost model, else 0.
func (op Op) Bytes() int { return int(op.operand(OpMPI)) }

func (op Op) operand(k OpKind) int64 {
	if op.Kind != k {
		return 0
	}
	return op.n
}

// Work returns an operation advancing the clock by ns virtual nanoseconds.
func Work(ns int64) Op { return Op{Kind: OpWork, n: ns} }

// Call returns an operation invoking callee count times.
func Call(callee string, count int) Op {
	return Op{Kind: OpCall, Callee: callee, n: int64(count)}
}

// StaticCall returns a call edge that is present in the source (and hence in
// the static call graph) but never taken at run time — a call under a branch
// the workload does not exercise. Count is zero, so the execution engine
// skips it while MetaCG still records the edge.
func StaticCall(callee string) Op { return Call(callee, 0) }

// VCall returns a virtual call through the base method named base; at run
// time the first implementation registered for base is invoked.
func VCall(base string, count int) Op {
	return Op{Kind: OpCall, Callee: base, n: int64(count), Virtual: true}
}

// PtrCall returns an indirect call through the named pointer slot; at run
// time the first registered target is invoked.
func PtrCall(slot string, count int) Op {
	return Op{Kind: OpCall, Callee: slot, n: int64(count), ViaPointer: true}
}

// MPICall returns an MPI operation with the given payload size; the MPI
// function op is its Callee.
func MPICall(op string, bytes int) Op {
	return Op{Kind: OpMPI, Callee: op, n: int64(bytes)}
}

// VCallTo is VCall with an explicit runtime target (the dynamic type). p's
// side table keeps the target, so the op names it only for p.
func (p *Program) VCallTo(base, target string, count int) Op {
	return p.withTarget(VCall(base, count), target)
}

// PtrCallTo is PtrCall with an explicit runtime target, kept as VCallTo's.
func (p *Program) PtrCallTo(slot, target string, count int) Op {
	return p.withTarget(PtrCall(slot, count), target)
}

func (p *Program) withTarget(op Op, target string) Op {
	p.targets = append(p.targets, target)
	op.target = int32(len(p.targets))
	return op
}

// RuntimeTarget returns the function an indirect call op of p invokes at
// run time, or "" for the first registered one. The static call graph has
// edges to every implementation regardless — the gap between the two is what
// makes OpenFOAM's 410k-node graph coexist with a small dynamic footprint.
func (p *Program) RuntimeTarget(op Op) string {
	if op.target == 0 || int(op.target) > len(p.targets) {
		return ""
	}
	return p.targets[op.target-1]
}

// Function is one function definition in the synthetic program. A session
// keeps one per function, so the counts are int32 and the record fits the
// 128-byte size class.
type Function struct {
	Name        string // unique (mangled) name, the key everywhere
	DisplayName string // demangled form for reports; defaults to Name
	TU          string // translation unit (source file)
	Unit        string // link unit name

	// Static source-level metadata used by the selection pipeline.
	Statements   int32
	LOC          int32
	Flops        int32
	LoopDepth    int32
	Cyclomatic   int32
	Inline       bool // carries the `inline` keyword in the source
	SystemHeader bool // defined in a system header
	Virtual      bool // virtual member function
	AddressTaken bool // address escapes (suppresses symbol removal)
	StaticInit   bool // static initializer, run at load time
	// VagueLinkage marks implicit template instantiations and similar
	// vague-linkage definitions: when fully inlined the compiler emits no
	// out-of-line copy and hence no symbol — even when exported from a
	// DSO. Invisible to the call-graph metadata (CaPI cannot see it),
	// which is exactly why the paper's inlining compensation has to
	// approximate the inlined set from symbol absence (§V-E).
	VagueLinkage bool

	Visibility Visibility

	Ops []Op // executable body, interpreted in order
}

// Display returns the demangled display name, falling back to Name.
func (f *Function) Display() string {
	if f.DisplayName != "" {
		return f.DisplayName
	}
	return f.Name
}

// Unit is a link unit (executable, DSO, or system library).
type Unit struct {
	Name  string
	Kind  UnitKind
	Funcs []int32 // positions in Program.Funcs, in emission order
}

// Program is a complete synthetic application.
type Program struct {
	Name string
	Main string // entry function name

	units []*Unit // a handful per program: scanned, not indexed

	fns []*Function // insertion order, the canonical iteration order

	// names is the name index: linear probing over twice as many slots as
	// fns has room for, from a slot picked by seed's hash of the name. A
	// slot is 0 when empty, else 1 + a position in the bits under posMask
	// and the hash's low bits above, so a probe seldom reads a wrong name.
	names   []uint32
	posMask uint32
	seed    maphash.Seed

	targets []string // runtime targets of indirect call ops (Op.target)

	// VirtualImpls maps a virtual base method name to all overriding
	// implementations (the base itself included when it has a body).
	VirtualImpls map[string][]string

	// PointerTargets maps a pointer slot name to the possible targets.
	PointerTargets map[string][]string

	// StaticPointerSlots lists the slots MetaCG can resolve statically;
	// the rest need the profile-validation utility (§III-A).
	StaticPointerSlots map[string]bool
}

// New creates an empty program with the given name and entry point name.
// The entry function must be added before Validate is called.
func New(name, main string) *Program {
	return &Program{
		Name:               name,
		Main:               main,
		names:              make([]uint32, 16), // rehash(8)'s table, no function in it
		posMask:            15,
		seed:               maphash.MakeSeed(),
		VirtualImpls:       map[string][]string{},
		PointerTargets:     map[string][]string{},
		StaticPointerSlots: map[string]bool{},
	}
}

// Reserve makes room for n functions in all, so that a generator that knows
// its size up front does not pay for growing the tables n times over.
func (p *Program) Reserve(n int) {
	p.fns = slices.Grow(p.fns, max(0, n-len(p.fns)))
	if 2*n > len(p.names) {
		p.rehash(n)
	}
}

// rehash sizes the name index for n functions at a load of one half and
// enters every function added so far.
func (p *Program) rehash(n int) {
	p.names = make([]uint32, 2*n)
	p.posMask = 1<<bits.Len(uint(n)) - 1
	for i, f := range p.fns {
		at, tag := p.probe(f.Name)
		*at = tag | uint32(i+1)
	}
}

// probe returns the name index slot that holds name's position, or the
// empty slot where it would go, and the hash bits a slot of name carries
// above its position. The table is never full, so the probe ends.
func (p *Program) probe(name string) (*uint32, uint32) {
	h := maphash.String(p.seed, name)
	size := uint64(len(p.names))
	i, _ := bits.Mul64(h, size) // the hash scaled to [0, size)
	tag := uint32(h) &^ p.posMask
	for {
		at := &p.names[i]
		if *at == 0 || *at&^p.posMask == tag && p.fns[*at&p.posMask-1].Name == name {
			return at, tag
		}
		if i++; i == size {
			i = 0
		}
	}
}

// AddUnit registers a link unit. Adding a unit twice is an error.
func (p *Program) AddUnit(name string, kind UnitKind) (*Unit, error) {
	if slices.ContainsFunc(p.units, func(u *Unit) bool { return u.Name == name }) {
		return nil, fmt.Errorf("prog: duplicate unit %q", name)
	}
	u := &Unit{Name: name, Kind: kind}
	p.units = append(p.units, u)
	return u, nil
}

// MustAddUnit is AddUnit for generator code with static inputs.
func (p *Program) MustAddUnit(name string, kind UnitKind) *Unit {
	u, err := p.AddUnit(name, kind)
	if err != nil {
		//capi:panic-ok Must* helper for generators with static inputs, by contract
		panic(err)
	}
	return u
}

// AddFunc registers a function definition into its unit.
func (p *Program) AddFunc(f *Function) error {
	if f.Name == "" {
		return fmt.Errorf("prog: function with empty name")
	}
	if p.Index(f.Name) >= 0 {
		return fmt.Errorf("prog: duplicate function %q", f.Name)
	}
	unit := slices.IndexFunc(p.units, func(u *Unit) bool { return u.Name == f.Unit })
	if unit < 0 {
		return fmt.Errorf("prog: function %q references unknown unit %q", f.Name, f.Unit)
	}
	at := int32(len(p.fns))
	if 2*(len(p.fns)+1) > len(p.names) {
		p.rehash(2 * len(p.fns))
	}
	p.fns = append(p.fns, f)
	slot, tag := p.probe(f.Name)
	*slot = tag | uint32(at+1)
	p.units[unit].Funcs = append(p.units[unit].Funcs, at)
	return nil
}

// MustAddFunc is AddFunc for generator code with static inputs.
func (p *Program) MustAddFunc(f *Function) *Function {
	if err := p.AddFunc(f); err != nil {
		//capi:panic-ok Must* helper for generators with static inputs, by contract
		panic(err)
	}
	return f
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	if i := p.Index(name); i >= 0 {
		return p.fns[i]
	}
	return nil
}

// Index returns the position of the named function in Funcs, or -1 if the
// program defines no such function.
func (p *Program) Index(name string) int {
	at, _ := p.probe(name)
	return int(*at&p.posMask) - 1
}

// Funcs returns all function definitions in insertion order. The returned
// slice is shared; callers must not modify it.
func (p *Program) Funcs() []*Function { return p.fns }

// NumFunctions returns the number of function definitions.
func (p *Program) NumFunctions() int { return len(p.fns) }

// Units returns the link units in registration order.
func (p *Program) Units() []*Unit { return p.units }

// RegisterVirtual records impl as an implementation of the virtual base
// method. Implementations keep registration order.
func (p *Program) RegisterVirtual(base, impl string) {
	p.VirtualImpls[base] = append(p.VirtualImpls[base], impl)
}

// RegisterPointerTarget records target as a possible callee of the pointer
// slot. If static is true, MetaCG resolves the slot without profile help.
func (p *Program) RegisterPointerTarget(slot, target string, static bool) {
	p.PointerTargets[slot] = append(p.PointerTargets[slot], target)
	if static {
		p.StaticPointerSlots[slot] = true
	}
}

// Validate checks referential integrity: the entry point exists, every call
// target resolves (directly, via virtual implementations, or via pointer
// targets), and every MPI operation names a declared function.
func (p *Program) Validate() error {
	if p.Main == "" {
		return fmt.Errorf("prog %q: no entry point", p.Name)
	}
	if p.Func(p.Main) == nil {
		return fmt.Errorf("prog %q: entry point %q not defined", p.Name, p.Main)
	}
	for _, f := range p.fns {
		name := f.Name
		for i, op := range f.Ops {
			switch op.Kind {
			case OpCall:
				if op.Count() < 0 {
					return fmt.Errorf("prog %q: %s op %d: negative call count %d", p.Name, name, i, op.Count())
				}
				switch {
				case op.Virtual || op.ViaPointer:
					via, what, impls := "virtual", "implementation", p.VirtualImpls[op.Callee]
					if op.ViaPointer {
						via, what, impls = "pointer slot", "target", p.PointerTargets[op.Callee]
					}
					if len(impls) == 0 {
						return fmt.Errorf("prog %q: %s calls %s %q with no %ss", p.Name, name, via, op.Callee, what)
					}
					for _, impl := range impls {
						if p.Func(impl) == nil {
							return fmt.Errorf("prog %q: %s %q %s %q not defined", p.Name, via, op.Callee, what, impl)
						}
					}
					if int(op.target) > len(p.targets) {
						return fmt.Errorf("prog %q: %s op %d: runtime target recorded by another program", p.Name, name, i)
					}
					if target := p.RuntimeTarget(op); target != "" && p.Func(target) == nil {
						return fmt.Errorf("prog %q: %s: runtime target %q not defined", p.Name, name, target)
					}
				default:
					if p.Func(op.Callee) == nil {
						return fmt.Errorf("prog %q: %s calls undefined function %q", p.Name, name, op.Callee)
					}
				}
			case OpMPI:
				if p.Func(op.Callee) == nil {
					return fmt.Errorf("prog %q: %s performs MPI op %q with no declared MPI function", p.Name, name, op.Callee)
				}
			case OpWork:
				if op.Work() < 0 {
					return fmt.Errorf("prog %q: %s op %d: negative work", p.Name, name, i)
				}
			default:
				return fmt.Errorf("prog %q: %s op %d: unknown kind %d", p.Name, name, i, op.Kind)
			}
		}
	}
	return nil
}

// TotalStatements sums statement counts across all functions; the compiler
// uses it for its build-time model.
func (p *Program) TotalStatements() int {
	total := 0
	for _, f := range p.fns {
		total += int(f.Statements)
	}
	return total
}

// TU is one translation unit: its name and the positions in Funcs of the
// functions defined in it, in insertion order.
type TU struct {
	Name  string
	Funcs []int
}

// ByTU groups all functions by translation unit in one pass and returns the
// groups sorted by name. It reads Function.TU as it is now — generators may
// set it after AddFunc — so nothing is cached between calls.
func (p *Program) ByTU() []TU {
	var tus []TU
	index := map[string]int{}
	t := -1
	for i, f := range p.fns {
		if t < 0 || f.TU != tus[t].Name { // one lookup per run of a unit's functions
			var ok bool
			if t, ok = index[f.TU]; !ok {
				t = len(tus)
				index[f.TU] = t
				tus = append(tus, TU{Name: f.TU})
			}
		}
		tus[t].Funcs = append(tus[t].Funcs, i)
	}
	sort.Slice(tus, func(i, j int) bool { return tus[i].Name < tus[j].Name })
	return tus
}
