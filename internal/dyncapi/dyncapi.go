// Package dyncapi implements the DynCaPI runtime (§IV, §V-C of the paper):
// the component that, at program start,
//
//  1. builds a mapping from XRay function IDs to function names for every
//     registered object — by collecting symbol addresses (nm) and
//     translating them via the process memory map, cross-checked against
//     __xray_function_address; hidden symbols of DSOs cannot be resolved
//     this way (the paper's 1,444 OpenFOAM cases, §VI-B(a));
//  2. patches the sleds of the functions selected by the instrumentation
//     configuration (or everything, for the "xray full" variant);
//  3. bridges XRay events to a measurement backend: the generic
//     cyg-profile interface, Score-P (with symbol injection so DSO
//     addresses resolve, §V-C1) or TALP (§V-C2).
//
// The accumulated virtual start-up cost is the T_init column of Table II.
package dyncapi

import (
	"cmp"
	"fmt"
	"iter"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"capi/internal/ic"
	"capi/internal/obj"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// ResolvedFunc is one instrumentable function as seen by the runtime — and
// one slot of the per-object dense table the handler indexes (Runtime.tables).
// Always handle it by pointer: the runtime keeps per-function hot-path state
// in it. The three words the handler reads come first, so a lookup, its
// miss classification and the policy fetch touch 16 adjacent bytes.
type ResolvedFunc struct {
	PackedID int32

	// state is the function's selection state (stateUnpatched, stateActive
	// or stateDeselected). The handler loads it once per event; Reconfigure
	// stores it under Runtime.mu, for the functions in its delta only.
	state atomic.Uint32

	// sample points at the function's sampling/suppression state once a
	// policy has ever been installed (nil = deliver everything, the fast
	// path). The handler loads it atomically right after the state word, so
	// changing a function's sampling rate never locks the hot path. Set
	// under Runtime.mu, never cleared back to nil — a cleared policy keeps
	// the pairing stacks so open pairs stay balanced.
	sample atomic.Pointer[funcSampleState]

	Addr uint64
	// Name is empty when the function ID could not be resolved to a
	// symbol (hidden visibility in a DSO).
	Name string
}

// The selection states of a slot. A function's sleds are patched only while
// it is stateActive or — for the moment between a re-selection publishing
// its states and restoring the sleds — stateDeselected, so an event that
// finds stateUnpatched is a sled hit that should not have happened.
const (
	// stateUnpatched: not selected, and not removed by the latest
	// re-selection. Events count in DroppedUnpatched.
	stateUnpatched uint32 = iota
	// stateActive: selected; events go to the sampler and the sink.
	stateActive
	// stateDeselected: removed by the latest re-selection. Stragglers that
	// fired before the sled restore took effect count in DroppedInFlight.
	// The next re-selection moves the slot to stateActive (selected again)
	// or stateUnpatched (still out).
	stateDeselected
)

// Backend is a measurement tool attached to the instrumentation. OnEnter
// and OnExit run inside the XRay handler on the executing rank; fn.Name may
// be empty for unresolved functions.
type Backend interface {
	Name() string
	OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc)
	OnExit(tc xray.ThreadCtx, fn *ResolvedFunc)
	// InitCost returns the backend's virtual start-up cost given the
	// number of symbols the runtime scanned.
	InitCost(symbolsScanned int) int64
}

// SymbolInjector is implemented by backends that want the DSO symbol
// mapping injected (Score-P).
type SymbolInjector interface {
	InjectSymbol(addr uint64, name string)
}

// Deselector is implemented by measurement backends that can close the
// dangling state a live re-selection leaves behind: a rank that is *inside*
// a function when Reconfigure restores its exit sled never fires that exit
// event, so without help Score-P would keep the region open on the
// simulated call stack forever and TALP would never balance the start.
//
// OnDeselect is invoked under the reconfigure lock, once per deselected
// function, after the new selection is published and the delta sleds are
// re-patched. It returns the number of dangling enters it closed (the
// synthetic exits delivered); the total is reported in
// ReconfigReport.SyntheticExits. Backends whose per-event state needs no
// closing (cyg-profile, the extrae tracer — trace completeness is asserted
// through the split drop counters instead) simply do not implement the
// interface.
type Deselector interface {
	OnDeselect(fn *ResolvedFunc) int
}

// Virtual-time costs of runtime initialization, calibrated so that
// full-scale OpenFOAM lands in the paper's T_init ballpark (seconds, §VI-C).
const (
	// perSledResolve: determining address and name of one function ID.
	perSledResolve = 12 * vtime.Microsecond
	// perSymbolNM: scanning one symbol from an object file.
	perSymbolNM = 2 * vtime.Microsecond
	// perPatch: patching one function's sleds (mprotect amortized).
	perPatch = 12 * vtime.Microsecond
	// initBase: fixed start-up cost of the DynCaPI library itself.
	initBase = 25 * vtime.Millisecond
)

// Options configures the runtime.
type Options struct {
	// PatchAll ignores the IC and patches every sled ("xray full").
	PatchAll bool
	// Ranks sizes the sampler's preallocated per-rank slots (the simulated
	// MPI world size). Rank IDs beyond it still work through a slower
	// overflow path; 0 defaults to 16.
	Ranks int
	// Async lifts the measurement backends off the dispatch hot path: the
	// handler only appends a compact event record to a per-rank ring (see
	// pipeline.go) and a consumer pool delivers the events to the backend
	// chain asynchronously. The inline path stays the default.
	Async bool
	// AsyncBuf is the per-rank ring capacity in events (rounded up to a
	// power of two); 0 defaults to DefaultAsyncBuf. When a ring fills, whole
	// enter/exit pairs are dropped and counted in DroppedAsync.
	AsyncBuf int
}

// Report summarizes what initialization did — the §VI-B facts.
type Report struct {
	Objects            int // registered patchable objects (incl. executable)
	FunctionsResolved  int
	Unresolved         int // function IDs without a resolvable symbol
	UnresolvedSelected int // of those, how many the IC asked for (0 in the paper)
	Patched            int
	PatchedByID        int // patched via static IDs despite unresolved name (§VI-B(a) extension)
	SymbolsScanned     int
	SymbolsInjected    int
	InitVirtualNs      int64 // T_init
}

// Runtime is one initialized DynCaPI instance.
//
// A Runtime is safe for concurrent use: XRay handler execution (events
// firing on every rank) may overlap with Reconfigure. The resolution tables
// are laid out once in New and never move; the handler indexes them by the
// packed ID's object and function parts and reads the slot's selection state
// with one atomic load. All mutating operations (Reconfigure, SwapBackend,
// the sampling setters) serialize on an internal mutex and publish through
// the slots' atomic words.
type Runtime struct {
	proc *obj.Process
	xr   *xray.Runtime
	opts Options

	// tables holds one dense slice of slots per XRay object ID, indexed by
	// the object-local function ID (xray.PackID: object<<24 | fn; IDs are
	// dense per object by construction, Fig. 4). An object that was not
	// registered at New has a nil table, so an unknown object, an
	// out-of-range function ID and an object ID past the last registered
	// one all fail the same two bounds checks in slot.
	tables [][]ResolvedFunc
	// objOrder lists the registered object IDs in packed-ID order: objects
	// 128 and up fill the sign bit and so sort first.
	objOrder []uint8

	// backend holds the attached measurement backend (possibly a Mux
	// fan-out, the adapt controller among its children). It is loaded
	// atomically for every delivered event so SwapBackend can exchange the
	// whole backend set while ranks execute.
	backend atomic.Value // of backendBox

	// pipe is the asynchronous event pipeline (nil in inline mode): the sink
	// the handler hands admitted events to. Set in New before the handler is
	// installed and never reassigned, so handlers and accessors may read it
	// without synchronization.
	pipe *pipeline

	// defaultSample publishes the sampling table's default policy to the
	// handler, which materializes per-function state lazily on a function's
	// first event — a table-wide default never allocates for functions that
	// never fire (see sampler.go).
	defaultSample atomic.Pointer[SamplePolicy]

	report Report

	// dsoSyms records the DSO function symbols scanned at initialization so
	// a backend swapped in later (SwapBackend) can have them injected the
	// same way the start-up backend did.
	dsoSyms []dsoSym

	// mu serializes configuration changes (Reconfigure, SwapBackend) and
	// guards cfg and the reconfiguration counters.
	mu         sync.Mutex
	cfg        *ic.Config //capi:guardedby mu
	reconfigs  int        //capi:guardedby mu
	reconfigNs int64      //capi:guardedby mu

	// active is the current selection sorted by packed ID — the slots in
	// stateActive. Reconfigure publishes a fresh slice (never mutated
	// afterwards) so the next delta is a merge of two sorted slices and the
	// Active* accessors read it without the lock.
	active atomic.Pointer[[]*ResolvedFunc]
	// deselected lists the slots the latest Reconfigure left in
	// stateDeselected; the next one retires those still in it.
	deselected []*ResolvedFunc //capi:guardedby mu

	// droppedInFlight counts events that arrived for functions removed by
	// the latest re-selection — the window between publishing the new
	// states and the sled restore taking effect. droppedUnpatched counts
	// events for known functions outside both the selection and that
	// window (a sled hit that should not have happened). The split lets
	// trace completeness be asserted: dispatched events ==
	// delivered + droppedInFlight + droppedUnpatched.
	droppedInFlight  atomic.Int64
	droppedUnpatched atomic.Int64

	// synthExits accumulates the synthetic exits delivered through the
	// Deselector hook across all reconfigurations; synthByBackend breaks
	// them down per backend name (both guarded by mu).
	synthExits     int64            //capi:guardedby mu
	synthByBackend map[string]int64 //capi:guardedby mu

	// Sampling configuration (see sampler.go): sampleOverrides counts the
	// explicit per-function overrides (the states flagged override) and
	// sampleDefault is the table's default policy, the lock-side copy of
	// defaultSample. sampleRanks sizes the preallocated per-rank slots.
	sampleOverrides int           //capi:guardedby mu
	sampleDefault   *SamplePolicy //capi:guardedby mu
	sampleRanks     int

	// byName indexes the resolved functions by symbol name, each entry
	// sorted by packed ID (one name may resolve in several objects). Built
	// with the tables and as immutable: a selection is looked up from its
	// ~10^3 names, not by probing it once for each of the ~10^4 functions.
	byName map[string][]*ResolvedFunc
}

// backendBox wraps the backend interface value for atomic.Value, which
// requires a consistent concrete type across stores.
type backendBox struct{ b Backend }

// dsoSym is one scanned DSO function symbol, kept for late injection.
type dsoSym struct {
	addr uint64
	name string
}

// New initializes DynCaPI: it resolves function IDs, patches according to
// the IC (passed via the CAPI_IC environment variable in the real tool) and
// installs the event handler. The world has not started yet — this models
// the patching at program start, before main runs.
func New(proc *obj.Process, xr *xray.Runtime, cfg *ic.Config, backend Backend, opts Options) (*Runtime, error) {
	if proc == nil || xr == nil || backend == nil {
		return nil, fmt.Errorf("dyncapi: process, xray runtime and backend are required")
	}
	if cfg == nil && !opts.PatchAll {
		return nil, fmt.Errorf("dyncapi: an instrumentation configuration is required unless PatchAll is set")
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 16
	}
	rt := &Runtime{
		proc:           proc,
		xr:             xr,
		cfg:            cfg,
		opts:           opts,
		byName:         map[string][]*ResolvedFunc{},
		synthByBackend: map[string]int64{},
		sampleRanks:    opts.Ranks,
	}
	rt.backend.Store(backendBox{backend})
	if err := rt.resolve(); err != nil {
		return nil, err
	}
	if err := rt.patch(); err != nil {
		return nil, err
	}
	rt.report.InitVirtualNs += initBase
	rt.report.InitVirtualNs += backend.InitCost(rt.report.SymbolsScanned)
	if opts.Async {
		rt.pipe = newPipeline(rt, opts.Ranks, opts.AsyncBuf)
	}
	rt.xr.SetHandler(rt.dispatch)
	return rt, nil
}

// loadBackend returns the currently attached backend.
func (rt *Runtime) loadBackend() Backend {
	return rt.backend.Load().(backendBox).b
}

// symbolInjectors finds every SymbolInjector in the backend graph, looking
// through fan-outs (Mux) so multiplexing (e.g. talp+scorep, or a measurement
// backend plus the adapt controller) does not silently disable DSO symbol
// injection for any consumer.
func symbolInjectors(b Backend) []SymbolInjector {
	var out []SymbolInjector
	walkBackends(b, func(b Backend) {
		if inj, ok := b.(SymbolInjector); ok {
			out = append(out, inj)
		}
	})
	return out
}

// walkBackends visits every backend in the graph rooted at b: b itself and
// the children of every fan-out (Mux), depth-first in delivery order.
func walkBackends(b Backend, visit func(Backend)) {
	visit(b)
	if f, ok := b.(fanout); ok {
		for _, c := range f.Children() {
			walkBackends(c, visit)
		}
	}
}

// namedDeselector pairs a Deselector with the backend name it belongs to,
// for the per-backend synthetic-exit accounting.
type namedDeselector struct {
	name string
	ds   Deselector
}

// deselectors collects every Deselector in the backend graph, named.
func deselectors(b Backend) []namedDeselector {
	var out []namedDeselector
	walkBackends(b, func(b Backend) {
		if ds, ok := b.(Deselector); ok {
			out = append(out, namedDeselector{b.Name(), ds})
		}
	})
	return out
}

// closeDangling has every deselector close the dangling enters of fns,
// books the synthetic exits on the runtime's totals and returns them, in
// all and per backend name, for the caller's report.
//
//capi:locked mu
func (rt *Runtime) closeDangling(dss []namedDeselector, fns []*ResolvedFunc) (total int, byBackend map[string]int) {
	for _, nd := range dss {
		for _, rf := range fns {
			if n := nd.ds.OnDeselect(rf); n > 0 {
				total += n
				if byBackend == nil {
					byBackend = map[string]int{}
				}
				byBackend[nd.name] += n
				rt.synthByBackend[nd.name] += int64(n)
			}
		}
	}
	rt.synthExits += int64(total)
	return total, byBackend
}

// resolve lays out the per-object slot tables and fills in the function-ID
// → name mapping. The executable is resolved from its full symbol table;
// DSOs only expose their dynamic symbols, so hidden functions stay
// unresolved (§VI-B(a)). Objects are visited in packed-ID order, which is
// what keeps every byName entry sorted.
func (rt *Runtime) resolve() error {
	injectors := symbolInjectors(rt.loadBackend())
	objects := rt.xr.Objects()
	for objID := range objects {
		rt.objOrder = append(rt.objOrder, objID)
	}
	slices.SortFunc(rt.objOrder, func(a, b uint8) int { return cmp.Compare(int8(a), int8(b)) })
	if len(objects) > 0 {
		rt.tables = make([][]ResolvedFunc, int(slices.Max(rt.objOrder))+1)
	}
	for _, objID := range rt.objOrder {
		lo := objects[objID]
		rt.report.Objects++
		var syms []obj.Symbol
		if lo.Image.Exe {
			syms = lo.Image.NM()
		} else {
			syms = lo.Image.DynSyms()
		}
		byOffset := make(map[uint64]string, len(syms))
		for _, s := range syms {
			if s.Kind != obj.SymFunc {
				continue
			}
			byOffset[s.Value] = s.Name
			rt.report.SymbolsScanned++
			if !lo.Image.Exe {
				// Recorded even when no injector is attached yet: a backend
				// swapped in later gets the same injection replayed.
				rt.dsoSyms = append(rt.dsoSyms, dsoSym{addr: lo.Base + s.Value, name: s.Name})
				for _, injector := range injectors {
					injector.InjectSymbol(lo.Base+s.Value, s.Name)
					rt.report.SymbolsInjected++
				}
			}
		}
		// Ground truth (full symbol table) — used only to *verify* that no
		// selected function is among the unresolvable ones, the check the
		// paper performs in §VI-B(a). DynCaPI itself cannot use it.
		truth := make(map[uint64]string)
		//capi:unguarded-ok resolve runs inside New, before the runtime is published to any other goroutine
		if rt.cfg != nil && !lo.Image.Exe {
			for _, s := range lo.Image.NM() {
				if s.Kind == obj.SymFunc {
					truth[s.Value] = s.Name
				}
			}
		}
		rt.report.InitVirtualNs += int64(len(syms)) * perSymbolNM

		table := make([]ResolvedFunc, lo.Image.NumFuncIDs)
		rt.tables[objID] = table
		for fn := range table {
			packed, err := xray.PackID(objID, uint32(fn))
			if err != nil {
				return fmt.Errorf("dyncapi: object %q: %w", lo.Image.Name, err)
			}
			addr, err := rt.xr.FunctionAddress(packed)
			if err != nil {
				return fmt.Errorf("dyncapi: resolving %q fn %d: %w", lo.Image.Name, fn, err)
			}
			rf := &table[fn]
			rf.PackedID, rf.Addr = packed, addr
			if name, ok := byOffset[addr-lo.Base]; ok {
				rf.Name = name
				rt.byName[name] = append(rt.byName[name], rf)
				rt.report.FunctionsResolved++
			} else {
				rt.report.Unresolved++
				//capi:unguarded-ok resolve runs inside New, before the runtime is published to any other goroutine
				if trueName, ok := truth[addr-lo.Base]; ok && rt.cfg != nil && rt.cfg.Contains(trueName) {
					rt.report.UnresolvedSelected++
				}
			}
			rt.report.InitVirtualNs += perSledResolve
		}
	}
	return nil
}

// slot returns the table slot of a packed ID, or nil when the runtime never
// resolved it: an object that was not registered at New (its table is nil or
// past the end) or a function ID beyond the object's sled count. Two bounds
// checks and no hash — the whole lookup of the event hot path.
func (rt *Runtime) slot(id int32) *ResolvedFunc {
	if o := uint32(id) >> 24; o < uint32(len(rt.tables)) {
		if t, fn := rt.tables[o], uint32(id)&xray.MaxFuncID; fn < uint32(len(t)) {
			return &t[fn]
		}
	}
	return nil
}

// all yields every resolved function in packed-ID order.
func (rt *Runtime) all() iter.Seq[*ResolvedFunc] {
	return func(yield func(*ResolvedFunc) bool) {
		for _, o := range rt.objOrder {
			t := rt.tables[o]
			for i := range t {
				if !yield(&t[i]) {
					return
				}
			}
		}
	}
}

// wantSet computes the subset of resolved functions the given configuration
// selects, sorted by packed ID. A function is selected either by resolved
// name or — the §VI-B(a) extension — by a statically determined packed ID
// carried in the IC, which also covers hidden DSO symbols that name
// resolution cannot reach.
func (rt *Runtime) wantSet(cfg *ic.Config, patchAll bool) []*ResolvedFunc {
	if patchAll {
		return rt.Funcs()
	}
	if cfg == nil {
		return nil
	}
	want := make([]*ResolvedFunc, 0, len(cfg.Include)+len(cfg.IncludeIDs))
	for _, name := range cfg.Include {
		want = append(want, rt.byName[name]...)
	}
	for _, id := range cfg.IncludeIDs {
		if rf := rt.slot(id); rf != nil {
			want = append(want, rf)
		}
	}
	slices.SortFunc(want, func(a, b *ResolvedFunc) int { return cmp.Compare(a.PackedID, b.PackedID) })
	// A function selected by name and by ID appears twice.
	return slices.Compact(want)
}

// packedIDs lists the packed IDs of a selection, in its order.
func packedIDs(funcs []*ResolvedFunc) []int32 {
	ids := make([]int32, len(funcs))
	for i, rf := range funcs {
		ids[i] = rf.PackedID
	}
	return ids
}

// patch applies the initial IC (or patches everything) in one coalesced
// batch and publishes the selection.
func (rt *Runtime) patch() error {
	//capi:unguarded-ok patch runs inside New, before the runtime is published to any other goroutine
	want := rt.wantSet(rt.cfg, rt.opts.PatchAll)
	for _, rf := range want {
		if rf.Name == "" {
			rt.report.PatchedByID++
		}
		rf.state.Store(stateActive)
	}
	rt.active.Store(&want)
	if len(want) > 0 {
		if _, err := rt.xr.PatchBatch(packedIDs(want), true); err != nil {
			return fmt.Errorf("dyncapi: patching %d functions: %w", len(want), err)
		}
	}
	rt.report.Patched = len(want)
	rt.report.InitVirtualNs += int64(len(want)) * perPatch
	return nil
}

// dispatch is the XRay event handler — the per-event hot path, inline and
// async alike: slot lookup, drop classification, sampler admission, hand-off
// to the sink fixed at New. The lookup is two bounds checks and one atomic
// load of the slot's state word, on the cache line that also holds the
// sampler pointer; an event the runtime throws away costs no more than that
// and one counter. Everything dispatch calls stays allocation-, lock- and
// hash-free (the lint hotpath analyzer walks it from this annotation).
//
//capi:hotpath
func (rt *Runtime) dispatch(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
	rf := rt.slot(id)
	if rf == nil {
		return // not a function of any object registered at New
	}
	if state := rf.state.Load(); state != stateActive {
		if state == stateDeselected {
			rt.droppedInFlight.Add(1)
		} else {
			rt.droppedUnpatched.Add(1)
		}
		return
	}
	// The sampling/suppression stage: one more atomic load on the fast
	// (no-policy) path; with a policy installed, the per-rank decision
	// logic drops sampled-out / suppressed / collapsed pairs before
	// they reach the sink. A table-wide default policy is materialized
	// into per-function state here, on the function's first event
	// (lazySampleState), so installing a default never allocates for
	// functions that never fire. The decision is made here in async mode
	// too, synchronously, so the pairing stacks see every event in program
	// order and the conservation identity survives asynchrony.
	st := rf.sample.Load()
	if st == nil {
		if dp := rt.defaultSample.Load(); dp != nil {
			st = rt.lazySampleState(rf, dp)
		}
	}
	if st != nil && !st.admit(tc, kind) {
		return
	}
	// The sink: the rank's ring when a pipeline is attached (the backends
	// consume off the hot path), the backend chain otherwise — and for a
	// rank the pipeline has no ring for, so a misconfigured world size
	// degrades to inline delivery instead of corrupting a neighbour's ring.
	if rt.pipe != nil && rt.pipe.append(tc, rf, kind) {
		return
	}
	backend := rt.loadBackend()
	if kind == xray.Entry {
		backend.OnEnter(tc, rf)
	} else {
		backend.OnExit(tc, rf)
	}
}

// ReconfigReport summarizes one live re-selection (Reconfigure call).
type ReconfigReport struct {
	// Seq is the 1-based reconfiguration sequence number.
	Seq int
	// Patched and Unpatched count the functions whose sleds changed state —
	// the delta between the old and new selection. Kept counts selected
	// functions whose sleds were left untouched.
	Patched   int
	Unpatched int
	Kept      int
	// Active is the selection size after the reconfiguration.
	Active int
	// AddedNames and RemovedNames are the name-level IC diff.
	AddedNames   []string
	RemovedNames []string
	// Batch is the XRay patching work this reconfiguration performed (only
	// delta sleds, under coalesced mprotect windows).
	Batch xray.Stats
	// SyntheticExits counts the dangling enters the measurement backends
	// closed for deselected functions through the Deselector hook — ranks
	// that were inside a function when its exit sled was restored.
	SyntheticExits int
	// SyntheticExitsByBackend breaks SyntheticExits down per backend name:
	// one entry per Deselector in the attached backend graph (a Mux fan-out
	// delivers — and counts — per child). Empty when nothing was closed.
	SyntheticExitsByBackend map[string]int `json:"SyntheticExitsByBackend,omitempty"`
	// Sampling carries the sampler's aggregate counters at the time of the
	// re-selection (nil when no sampling policy is installed). Mid-phase
	// the values may lag the hot path by up to one publication window.
	Sampling *SamplingCounters `json:"Sampling,omitempty"`
	// DroppedAsync is the cumulative count of enter/exit pairs the async
	// pipeline rejected under back-pressure, as of this re-selection
	// (0 in inline mode).
	DroppedAsync int64 `json:"DroppedAsync,omitempty"`
	// VirtualNs is the virtual-time cost of the re-patch: the per-function
	// patch cost times the functions patched or restored.
	VirtualNs int64
}

// Reconfigure applies a new instrumentation configuration to the running
// instance without tearing anything down: it diffs the currently selected
// set against the new IC and re-patches only the delta, in coalesced
// batches. The delta's state words are flipped *before* sleds change, so
// events for deselected functions stop being delivered immediately
// (in-flight sled hits are counted in DroppedInFlight). The flip is per
// function, not one swap of a whole set: a rank may find one function in its
// new state and another still in its old one. Nothing depends on more — a
// function's enter and its exit were always separate lookups, and pairing is
// the sampler's and the backends' business. Reconfigure is safe to call
// while handlers execute on other ranks; it always replaces a PatchAll
// selection.
//
// A rank that is *inside* a deselected function when its exit sled is
// restored never fires that exit event (the same is true of real XRay
// unpatching). This used to leak: Score-P kept the region open on the
// simulated call stack forever and TALP never balanced the start. Backends
// implementing Deselector now receive an OnDeselect call per removed
// function — under the reconfigure lock, after the sleds changed — and
// close those dangling enters with synthetic exits; the count is reported
// in ReconfigReport.SyntheticExits.
func (rt *Runtime) Reconfigure(cfg *ic.Config) (ReconfigReport, error) {
	if cfg == nil {
		return ReconfigReport{}, fmt.Errorf("dyncapi: reconfigure requires an instrumentation configuration")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	// Both selections are sorted by packed ID: the delta is one merge.
	want, cur := rt.wantSet(cfg, false), *rt.active.Load()
	toPatch, toUnpatch := make([]*ResolvedFunc, 0, len(want)), make([]*ResolvedFunc, 0, len(cur))
	kept := 0
	for i, j := 0, 0; i < len(want) || j < len(cur); {
		switch {
		case j == len(cur) || (i < len(want) && want[i].PackedID < cur[j].PackedID):
			toPatch = append(toPatch, want[i])
			i++
		case i == len(want) || cur[j].PackedID < want[i].PackedID:
			toUnpatch = append(toUnpatch, cur[j])
			j++
		default:
			kept++
			i++
			j++
		}
	}

	rep := ReconfigReport{
		Patched:   len(toPatch),
		Unpatched: len(toUnpatch),
		Kept:      kept,
		Active:    len(want),
	}
	rep.AddedNames, rep.RemovedNames = ic.Diff(rt.cfg, cfg)

	// Publish the new selection first, by flipping the state words of the
	// delta: deselected functions go silent now, newly selected ones only
	// produce events once their sleds are patched. No order of the three
	// steps can show a function whose sleds are still patched as unpatched:
	// the patched ones are the current selection, which either stays active
	// or turns deselected here, before its sleds are restored below; the
	// ones turning active are not patched yet; and what the previous
	// re-selection removed had its sleds restored before that call returned,
	// so retiring it to unpatched (unless this selection just brought it
	// back) only reclassifies stragglers two re-selections late.
	for _, rf := range toUnpatch {
		rf.state.Store(stateDeselected)
	}
	for _, rf := range toPatch {
		rf.state.Store(stateActive)
	}
	for _, rf := range rt.deselected {
		if rf.state.Load() == stateDeselected {
			rf.state.Store(stateUnpatched)
		}
	}
	rt.deselected = toUnpatch
	rt.active.Store(&want)
	if len(toUnpatch) > 0 {
		d, err := rt.xr.PatchBatch(packedIDs(toUnpatch), false)
		rep.Batch.Add(d)
		if err != nil {
			return rep, fmt.Errorf("dyncapi: unpatching %d functions: %w", len(toUnpatch), err)
		}
	}
	if len(toPatch) > 0 {
		d, err := rt.xr.PatchBatch(packedIDs(toPatch), true)
		rep.Batch.Add(d)
		if err != nil {
			return rep, fmt.Errorf("dyncapi: patching %d functions: %w", len(toPatch), err)
		}
	}
	rep.VirtualNs = int64(len(toPatch)+len(toUnpatch)) * perPatch

	// In async mode, drain the pipeline before closing dangling state:
	// deselected functions went silent when the new states were published
	// above, so waiting for the rings to empty guarantees every already
	// dispatched event has reached the backends before their synthetic exits
	// are delivered — otherwise a queued real exit could arrive after the
	// synthetic one that closed its frame.
	if rt.pipe != nil && len(toUnpatch) > 0 {
		rt.pipe.drain()
	}

	// Deliver synthetic exits for ranks caught inside a deselected
	// function: the sleds are restored, so no real exit can arrive anymore.
	// Every Deselector in the backend graph (a Mux fans out to several)
	// gets to close its dangling state, and the closures are counted per
	// backend.
	if len(toUnpatch) > 0 {
		rep.SyntheticExits, rep.SyntheticExitsByBackend = rt.closeDangling(deselectors(rt.loadBackend()), toUnpatch)
	}

	rt.cfg = cfg
	rt.opts.PatchAll = false
	rt.reconfigs++
	rt.reconfigNs += rep.VirtualNs
	rep.Seq = rt.reconfigs
	if rt.pipe != nil {
		rep.DroppedAsync = rt.pipe.dropped()
	}
	if rt.sampleDefault != nil || rt.sampleOverrides > 0 {
		var c SamplingCounters
		for _, st := range rt.sampleStatesSnapshot() {
			c.add(st.counters())
		}
		rep.Sampling = &c
	}
	return rep, nil
}

// Report returns the initialization summary.
func (rt *Runtime) Report() Report { return rt.report }

// Snapshot is a point-in-time view of the runtime's live counters, taken
// under the reconfigure lock so the mutually dependent fields (reconfigs,
// synthetic exits, accumulated re-patch cost) are consistent with each
// other. It is what remote observers (the HTTP control plane) scrape while
// ranks execute.
type Snapshot struct {
	// Active is the current selection size; Patched is the start-up count.
	Active  int
	Patched int
	// Reconfigs counts applied live re-selections; ReconfigVirtualNs their
	// accumulated virtual re-patch cost.
	Reconfigs         int
	ReconfigVirtualNs int64
	// SyntheticExits counts dangling enters closed through the Deselector
	// hook across all re-selections and backend swaps; SyntheticExitsByBackend
	// is the per-backend-name breakdown.
	SyntheticExits          int64
	SyntheticExitsByBackend map[string]int64
	// DroppedInFlight / DroppedUnpatched are the split drop counters.
	DroppedInFlight  int64
	DroppedUnpatched int64
	// Async reports whether the asynchronous event pipeline is attached.
	// AsyncDepth is the number of events currently queued in the per-rank
	// rings, DroppedAsync the pairs rejected by back-pressure (ring full)
	// and DroppedAsyncByRank its per-rank breakdown (nil when inline).
	// DroppedAsyncOrphanExits counts exits without a recorded enter (sled
	// patched mid-call) rejected at a full ring — kept out of DroppedAsync
	// because the conservation identity is stated in enter units.
	Async                   bool
	AsyncDepth              int64
	DroppedAsync            int64
	DroppedAsyncByRank      []int64 `json:",omitempty"`
	DroppedAsyncOrphanExits int64   `json:",omitempty"`
	// AsyncBuf is the effective per-rank ring capacity in events (the
	// configured value rounded up to a power of two; 0 when inline) — the
	// base the control plane's ring-sizing hint doubles from.
	AsyncBuf int `json:",omitempty"`
	// Sampling is the sampler's point-in-time view (policies + counters).
	Sampling SamplingSnapshot
	// InitVirtualNs is T_init.
	InitVirtualNs int64
}

// Snapshot returns a consistent view of the live counters. Safe to call
// concurrently with handler execution and Reconfigure.
func (rt *Runtime) Snapshot() Snapshot {
	rt.mu.Lock()
	snap := Snapshot{
		Reconfigs:         rt.reconfigs,
		ReconfigVirtualNs: rt.reconfigNs,
		SyntheticExits:    rt.synthExits,
	}
	if len(rt.synthByBackend) > 0 {
		snap.SyntheticExitsByBackend = make(map[string]int64, len(rt.synthByBackend))
		for name, n := range rt.synthByBackend {
			snap.SyntheticExitsByBackend[name] = n
		}
	}
	rt.mu.Unlock()
	snap.Active = rt.ActiveCount()
	snap.Patched = rt.report.Patched
	snap.InitVirtualNs = rt.report.InitVirtualNs
	snap.DroppedInFlight = rt.droppedInFlight.Load()
	snap.DroppedUnpatched = rt.droppedUnpatched.Load()
	if rt.pipe != nil {
		snap.Async = true
		snap.AsyncDepth = rt.pipe.depthNow()
		snap.DroppedAsync = rt.pipe.dropped()
		snap.DroppedAsyncByRank = rt.pipe.droppedByRank()
		snap.DroppedAsyncOrphanExits = rt.pipe.droppedOrphanExits()
		snap.AsyncBuf = rt.pipe.ringCap()
	}
	snap.Sampling = rt.SamplingSnapshot()
	return snap
}

// Backend returns the currently attached measurement backend (a *Mux when
// several are attached, the adapt controller among them).
func (rt *Runtime) Backend() Backend { return rt.loadBackend() }

// BackendSwapReport summarizes one live backend-set swap (SwapBackend).
type BackendSwapReport struct {
	// From and To name the detached and the newly attached backend.
	From string `json:"from"`
	To   string `json:"to"`
	// SyntheticExits counts the dangling enters the *detached* backends
	// closed when they let go of the event stream (ranks currently inside
	// an active function would never balance their enter on the old
	// backend); SyntheticExitsByBackend is the per-backend breakdown.
	SyntheticExits          int            `json:"syntheticExits"`
	SyntheticExitsByBackend map[string]int `json:"syntheticExitsByBackend,omitempty"`
	// VirtualNs is the virtual start-up cost of the new backend set.
	VirtualNs int64 `json:"virtualNs"`
}

// backendIdentitySet collects the identity of every node in the backend
// graph rooted at b, for SwapBackend's departure/arrival diff. Nodes whose
// dynamic type is not comparable are skipped — they always diff as
// departing/arriving, the conservative pre-diff behavior.
func backendIdentitySet(b Backend) map[any]bool {
	set := map[any]bool{}
	walkBackends(b, func(c Backend) {
		if reflect.TypeOf(c).Comparable() {
			set[c] = true
		}
	})
	return set
}

// SwapBackend exchanges the attached measurement backend set while the
// runtime is live: the patched sleds are untouched, the handler simply
// starts delivering events to the new backend (atomically — events in
// flight finish on the old one). The swap diffs the two chains by node
// identity: a backend present in both (a partial swap that keeps some of
// a mux's children) keeps its state untouched. Every *departing*
// Deselector closes its open state for every currently active function,
// exactly like a deselection would — an enter recorded by a backend that
// is being detached can never be balanced by it later. Every *arriving*
// SymbolInjector gets the scanned DSO symbols injected, and only arriving
// leaves charge their virtual start-up cost into VirtualNs.
func (rt *Runtime) SwapBackend(b Backend) (BackendSwapReport, error) {
	if b == nil {
		return BackendSwapReport{}, fmt.Errorf("dyncapi: nil backend")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	old := rt.loadBackend()
	rep := BackendSwapReport{From: old.Name(), To: b.Name()}
	keep := backendIdentitySet(b)
	oldSet := backendIdentitySet(old)
	// In async mode, drain before the swap so every event queued for the old
	// backend set is delivered to it; events appended after the drain land on
	// whichever backend the consumer loads at delivery time, the same
	// in-flight window the inline path tolerates.
	if rt.pipe != nil {
		rt.pipe.drain()
	}
	// Publish the new backend *before* closing the old set's state: from
	// here on new events go to the new backend, so the close loop below
	// races only against truly in-flight handler calls (the same window the
	// re-selection path tolerates), not against every event dispatched
	// while N OnDeselect calls run.
	rt.backend.Store(backendBox{b})
	var leaving []namedDeselector
	for _, nd := range deselectors(old) {
		// One staying attached keeps its open state live in the new chain.
		if !keep[any(nd.ds)] {
			leaving = append(leaving, nd)
		}
	}
	rep.SyntheticExits, rep.SyntheticExitsByBackend = rt.closeDangling(leaving, *rt.active.Load())

	for _, injector := range symbolInjectors(b) {
		if oldSet[any(injector)] {
			// Already attached before the swap: injected at its own attach.
			continue
		}
		for _, s := range rt.dsoSyms {
			injector.InjectSymbol(s.addr, s.name)
		}
	}
	// Start-up cost: only arriving leaves pay. Fan-outs are skipped so a
	// mux's children are not charged twice (Mux.InitCost sums them already).
	walkBackends(b, func(c Backend) {
		if _, isFan := c.(fanout); isFan {
			return
		}
		if reflect.TypeOf(c).Comparable() && oldSet[c] {
			return
		}
		rep.VirtualNs += c.InitCost(rt.report.SymbolsScanned)
	})
	return rep, nil
}

// Resolved returns the resolved function record for a packed ID, nil for
// an ID the runtime never resolved.
func (rt *Runtime) Resolved(id int32) *ResolvedFunc { return rt.slot(id) }

// Funcs returns every resolved function, sorted by packed ID.
func (rt *Runtime) Funcs() []*ResolvedFunc {
	out := make([]*ResolvedFunc, 0, rt.report.FunctionsResolved+rt.report.Unresolved)
	return slices.AppendSeq(out, rt.all())
}

// ByName returns the resolved functions carrying the symbol name, sorted by
// packed ID — several when instrumented copies live in several objects, none
// for an unknown name. The slice is the runtime's index: do not modify it.
func (rt *Runtime) ByName(name string) []*ResolvedFunc { return rt.byName[name] }

// Config returns the currently applied instrumentation configuration (nil
// when running under PatchAll and never reconfigured).
func (rt *Runtime) Config() *ic.Config {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.cfg
}

// Active reports whether the function is in the current selection.
func (rt *Runtime) Active(id int32) bool {
	rf := rt.slot(id)
	return rf != nil && rf.state.Load() == stateActive
}

// FuncStride returns the function's effective 1-in-N delivery stride:
// its sampling state when one is materialized (SetSampling /
// SetFuncSampling, including adapt demotions), the published table
// default otherwise, and 1 (full delivery) when neither sets a stride or
// the ID is unknown. Lock-free; the HTTP middleware reads it per event to
// model a demoted function's reduced backend cost.
func (rt *Runtime) FuncStride(id int32) int {
	rf := rt.slot(id)
	if rf == nil {
		return 1
	}
	if st := rf.sample.Load(); st != nil {
		if s := int(st.stride.Load()); s > 1 {
			return s
		}
		return 1
	}
	if dp := rt.defaultSample.Load(); dp != nil && dp.Stride > 1 {
		return dp.Stride
	}
	return 1
}

// ActiveCount returns the current selection size.
func (rt *Runtime) ActiveCount() int { return len(*rt.active.Load()) }

// ActiveFuncs returns the resolved records of the current selection, sorted
// by packed ID.
func (rt *Runtime) ActiveFuncs() []*ResolvedFunc { return slices.Clone(*rt.active.Load()) }

// DrainPipeline blocks until every event dispatched before the call has been
// delivered through the backend chain. A no-op in inline mode. Phase-end
// code must call it before reading backend reports or flushing sampling
// counters, or queued events would be missing from the results.
func (rt *Runtime) DrainPipeline() {
	if rt.pipe != nil {
		rt.pipe.drain()
	}
}

// DroppedAsync counts the enter/exit pairs the async pipeline rejected under
// back-pressure — the explicit bounded-ring policy. Each dropped pair is
// counted once, at the enter (0 in inline mode).
func (rt *Runtime) DroppedAsync() int64 {
	if rt.pipe == nil {
		return 0
	}
	return rt.pipe.dropped()
}

// Close drains and stops the async consumer pool. Like FlushSampling it
// requires quiescence: no rank may dispatch events concurrently or after.
// A no-op in inline mode; safe to call more than once.
func (rt *Runtime) Close() {
	if rt.pipe != nil {
		rt.pipe.drain()
		rt.pipe.close()
	}
}
