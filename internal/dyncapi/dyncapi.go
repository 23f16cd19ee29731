// Package dyncapi implements the DynCaPI runtime (§IV, §V-C of the paper):
// the component that, at program start,
//
//  1. builds a mapping from XRay function IDs to function names for every
//     registered object — by collecting symbol addresses (nm) and
//     translating them via the process memory map, cross-checked against
//     __xray_function_address; hidden symbols of DSOs cannot be resolved
//     this way (the paper's 1,444 OpenFOAM cases, §VI-B(a)). Each ID's
//     symbol is read from its image's own index (obj.Image.FuncSymbol),
//     and a name is looked up through the build's packed-ID table (ByName);
//     the nm and dynamic-table scans are charged as the real tool makes them;
//  2. patches the sleds of the functions selected by the instrumentation
//     configuration (or everything, for the "xray full" variant);
//  3. bridges XRay events to a measurement backend: the discarding
//     cyg-profile interface ("none"), Score-P (with symbol injection so DSO
//     addresses resolve, §V-C1), TALP (§V-C2) or the Extrae-style tracer.
//
// The accumulated virtual start-up cost is the T_init column of Table II.
package dyncapi

import (
	"fmt"
	"iter"
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"capi/internal/ic"
	"capi/internal/mpi"
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

	// sample points at the function's sampling/suppression state once it had
	// its own policy or fired under a default that samples or suppresses (nil
	// = the fast path). The handler loads it atomically right after the state
	// word, so changing a function's sampling rate never locks the hot path.
	// Never cleared back to nil — a cleared policy keeps the pairing stacks
	// so open pairs stay balanced.
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

// Backend is the event interface of a measurement tool, the one the
// runtime dispatches into. OnEnter and OnExit run inside the XRay handler on
// the executing rank; fn.Name may be empty for unresolved functions. A
// backend may also implement Deselector, SymbolInjector or both.
type Backend interface {
	Name() string
	OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc)
	OnExit(tc xray.ThreadCtx, fn *ResolvedFunc)
	// InitCost returns the backend's virtual start-up cost given the
	// number of symbols the runtime scanned.
	InitCost(symbolsScanned int) int64
}

// MeasurementBackend is one whole measurement system: the event interface
// plus the phase lifecycle. The backend itself is what the runtime
// dispatches into; per-phase state swaps happen inside it (StartPhase),
// never by replacing it. The built-ins (CygBackend, TALPBackend,
// ScorePBackend, ExtraeBackend) implement it, and a Guard wraps one.
type MeasurementBackend interface {
	Backend
	// StartPhase attaches fresh per-phase measurement state; world is the
	// new phase's MPI world (rank clocks restarted at zero).
	StartPhase(world *mpi.World) error
	// Report returns the current measurement report, or nil when the
	// backend has none (the discarding "none" backend, or nothing measured
	// yet). It must be safe to call while a phase executes.
	Report() Envelope
}

// SymbolInjector is implemented by backends that want the DSO symbol
// mapping injected (Score-P).
type SymbolInjector interface {
	InjectSymbol(addr uint64, name string)
}

// nameBinder is implemented by backends that record function IDs only and
// name them from the runtime's function table at report time (extrae).
type nameBinder interface {
	bindNames(names func(id int32) string)
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
	// Ranks is the number of dispatching ranks: every event's
	// ThreadCtx.RankID() must lie in [0, Ranks). Each per-rank table (the
	// sampler's accounts and slots, the pipeline's rings, the adapt
	// controller's rank state) is sized to it once. 0 defaults to 16.
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
	SymbolsScanned     int // function symbols the modelled nm scan reads (a DSO: dynamic ones only), counted in place
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
	// dense per object by construction, Fig. 4). An object ID the XRay
	// runtime did not assign has a nil table, so an unknown object, an
	// out-of-range function ID and an object ID past the last registered
	// one all fail the same two bounds checks in slot.
	tables [][]ResolvedFunc
	// bases holds, per object ID, the packed-ID-order position of the
	// object's first function (see Index).
	bases []int
	// objOrder lists the registered object IDs in packed-ID order: objects
	// 128 and up fill the sign bit and so sort first.
	objOrder []uint8

	// chain is the attached backend set, resolved once at its attach: the
	// sink (possibly a Mux fan-out, the adapt controller among its
	// children) and the leaves it delivers to. Loaded atomically for every
	// delivered event so SwapBackend can exchange the whole set while ranks
	// execute.
	chain atomic.Pointer[chain]

	// pipe is the asynchronous event pipeline (nil in inline mode): the sink
	// the handler hands admitted events to. Set in New before the handler is
	// installed and never reassigned, so handlers and accessors may read it
	// without synchronization.
	pipe *pipeline

	// defaultSample publishes the sampling table's default policy to the
	// handler (nil until a table is installed; deliverAll when it delivers
	// everything). Any other default is materialized into per-function state
	// lazily, on a function's first event (see sampler.go).
	defaultSample atomic.Pointer[SamplePolicy]
	// accounts holds the sampler's counters, one account per rank ID.
	accounts []sampleAccount

	report Report

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
	// defaultSample.
	sampleOverrides int           //capi:guardedby mu
	sampleDefault   *SamplePolicy //capi:guardedby mu
}

// New initializes DynCaPI: it resolves function IDs, patches according to
// the IC (passed via the CAPI_IC environment variable in the real tool) and
// installs the event handler. The world has not started yet — this models
// the patching at program start, before main runs.
func New(proc *obj.Process, xr *xray.Runtime, cfg *ic.Config, backend Backend, opts Options) (*Runtime, error) {
	if proc == nil || proc.PackedID == nil || xr == nil || backend == nil {
		return nil, fmt.Errorf("dyncapi: a process loaded from a build, its xray runtime and a backend are required")
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
		synthByBackend: map[string]int64{},
		accounts:       make([]sampleAccount, opts.Ranks),
	}
	c := newChain(backend)
	rt.chain.Store(c)
	if err := rt.resolve(); err != nil {
		return nil, err
	}
	if err := rt.patch(); err != nil {
		return nil, err
	}
	cost, injected := rt.attach(c.leaves)
	rt.report.SymbolsInjected = injected
	rt.report.InitVirtualNs += initBase + cost
	if opts.Async {
		rt.pipe = newPipeline(rt, opts.Ranks, opts.AsyncBuf)
	}
	rt.xr.SetHandler(rt.dispatch)
	return rt, nil
}

// chain is one attached backend set, resolved once: the sink the runtime
// delivers events to and the leaves that sink delivers to, in delivery
// order (a Mux's children, or the sink itself; Mux is the only fan-out and
// nothing nests one).
type chain struct {
	sink   Backend
	leaves []leaf
}

// leaf is one backend a chain delivers to, with the optional capabilities
// read once when the chain was resolved (nil when not implemented).
type leaf struct {
	b  Backend
	ds Deselector
	si SymbolInjector
}

// newChain resolves the backend set sink delivers to.
func newChain(sink Backend) *chain {
	bs := []Backend{sink}
	if m, ok := sink.(*Mux); ok {
		bs = m.backends
	}
	c := &chain{sink: sink}
	for _, b := range bs {
		ds, si := capabilities(b)
		c.leaves = append(c.leaves, leaf{b, ds, si})
	}
	return c
}

// has reports whether the chain delivers to b itself. A backend that is
// not comparable — by its dynamic type, or by a value it holds in an
// interface field — has no identity to match, so it is never found: across
// a swap it always departs and arrives.
func (c *chain) has(b Backend) bool {
	if !reflect.ValueOf(b).Comparable() {
		return false
	}
	for _, l := range c.leaves {
		if l.b == b {
			return true
		}
	}
	return false
}

// without returns c's leaves that other does not have (chain.has).
func (c *chain) without(other *chain) []leaf {
	var out []leaf
	for _, l := range c.leaves {
		if !other.has(l.b) {
			out = append(out, l)
		}
	}
	return out
}

// attach connects arriving leaves to the runtime: it binds the name lookup
// into every nameBinder, injects the scanned DSO symbols into every
// SymbolInjector (so multiplexing — talp+scorep, a backend plus the adapt
// controller — disables neither for any consumer) and returns the leaves'
// summed virtual start-up cost and the number of symbols injected.
func (rt *Runtime) attach(arriving []leaf) (cost int64, injected int) {
	for _, l := range arriving {
		if nb, ok := l.b.(nameBinder); ok {
			nb.bindNames(func(id int32) string {
				if rf := rt.slot(id); rf != nil {
					return rf.Name // "" when unresolved
				}
				return ""
			})
		}
		if l.si != nil {
			injected += rt.injectDSOSymbols(l.si)
		}
		cost += l.b.InitCost(rt.report.SymbolsScanned)
	}
	return cost, injected
}

// injectDSOSymbols injects every registered DSO's dynamic function symbols
// at their loaded addresses into si and returns their number.
func (rt *Runtime) injectDSOSymbols(si SymbolInjector) int {
	n := 0
	for _, objID := range rt.objOrder {
		lo, _ := rt.xr.Object(objID)
		if lo.Image.Exe {
			continue
		}
		for _, s := range lo.Image.Symbols {
			if s.Kind == obj.SymFunc && !s.Hidden {
				si.InjectSymbol(lo.Base+s.Value, s.Name)
				n++
			}
		}
	}
	return n
}

// closeDangling has every Deselector among leaves close the dangling enters
// of fns, books the synthetic exits on the runtime's totals and returns
// them, in all and per backend name, for the caller's report.
//
//capi:locked mu
func (rt *Runtime) closeDangling(leaves []leaf, fns []*ResolvedFunc) (total int, byBackend map[string]int) {
	for _, l := range leaves {
		if l.ds == nil {
			continue
		}
		for _, rf := range fns {
			if n := l.ds.OnDeselect(rf); n > 0 {
				total += n
				if byBackend == nil {
					byBackend = map[string]int{}
				}
				byBackend[l.b.Name()] += n
				rt.synthByBackend[l.b.Name()] += int64(n)
			}
		}
	}
	rt.synthExits += int64(total)
	return total, byBackend
}

// resolve lays out the per-object slot tables and names each function ID
// from its image's index (obj.Image.FuncSymbol). The executable is resolved
// from its full symbol table; DSOs only expose their dynamic symbols, so
// hidden functions stay unresolved (§VI-B(a)). The scans the real tool makes
// are charged per symbol and per ID, with no copy made.
func (rt *Runtime) resolve() error {
	// Objects 128 and up fill the sign bit of a packed ID and so sort first.
	for i := range xray.MaxDSOs + 1 {
		objID := uint8(i + 128)
		if _, ok := rt.xr.Object(objID); ok {
			rt.objOrder = append(rt.objOrder, objID)
		}
	}
	if len(rt.objOrder) > 0 {
		rt.tables = make([][]ResolvedFunc, int(slices.Max(rt.objOrder))+1)
		rt.bases = make([]int, len(rt.tables))
	}
	base := 0
	for _, objID := range rt.objOrder {
		lo, _ := rt.xr.Object(objID)
		im := lo.Image
		rt.report.Objects++
		scanned := 0
		for _, s := range im.Symbols {
			if im.Exe || !s.Hidden {
				scanned++
				if s.Kind == obj.SymFunc {
					rt.report.SymbolsScanned++
				}
			}
		}
		rt.report.InitVirtualNs += int64(scanned) * perSymbolNM

		table := make([]ResolvedFunc, im.NumFuncIDs)
		rt.tables[objID] = table
		rt.bases[objID] = base
		for fn := range table {
			packed, _ := xray.PackID(objID, uint32(fn)) // NewRuntime bounds a registered object's IDs
			addr, err := rt.xr.FunctionAddress(packed)
			if err != nil {
				return fmt.Errorf("dyncapi: resolving %q fn %d: %w", im.Name, fn, err)
			}
			rf := &table[fn]
			rf.PackedID, rf.Addr = packed, addr
			rt.report.InitVirtualNs += perSledResolve
			sym, ok := im.FuncSymbol(uint32(fn))
			if ok && (im.Exe || !sym.Hidden) {
				rf.Name = sym.Name
				rt.report.FunctionsResolved++
				continue
			}
			rt.report.Unresolved++
			// The hidden name is ground truth DynCaPI itself cannot see; it
			// only verifies that the IC asks for no unresolvable function,
			// the check the paper performs in §VI-B(a).
			//capi:unguarded-ok resolve runs inside New, before the runtime is published to any other goroutine
			if ok && rt.cfg != nil && rt.cfg.Contains(sym.Name) {
				rt.report.UnresolvedSelected++
			}
		}
		base += len(table)
	}
	return nil
}

// slot returns the table slot of a packed ID, or nil when the runtime never
// resolved it: an object ID the XRay runtime did not assign (its table is
// nil or past the end) or a function ID beyond the object's sled count. Two
// bounds checks and no hash — the whole lookup of the event hot path.
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
	// The IDs are sorted, not the slots: no comparison reads a slot.
	ids := make([]int32, 0, len(cfg.Include)+len(cfg.IncludeIDs))
	for _, name := range cfg.Include {
		if rf := rt.ByName(name); rf != nil {
			ids = append(ids, rf.PackedID)
		}
	}
	ids = append(ids, cfg.IncludeIDs...)
	slices.Sort(ids)
	// A function selected by name and by ID appears twice.
	ids = slices.Compact(ids)
	want := make([]*ResolvedFunc, 0, len(ids))
	for _, id := range ids {
		if rf := rt.slot(id); rf != nil {
			want = append(want, rf)
		}
	}
	return want
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
		return // not a function of any registered object
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
	// they reach the sink. A default that samples or suppresses becomes
	// per-function state on the function's first event (lazySampleState);
	// under one that delivers everything, a function without state only has
	// its enter counted. The decision is made here in async mode too, so the
	// pairing stacks see every event in program order and the conservation
	// identity survives asynchrony.
	st := rf.sample.Load()
	if st == nil {
		if dp := rt.defaultSample.Load(); dp == &deliverAll {
			if kind == xray.Entry {
				rt.accounts[tc.RankID()].enter()
			}
		} else if dp != nil {
			st = rt.lazySampleState(rf, dp)
		}
	}
	if st != nil && !st.admit(rt.accounts, tc, kind) {
		return
	}
	// The sink: the rank's ring when a pipeline is attached (the backends
	// consume off the hot path), the backend chain otherwise.
	if rt.pipe != nil {
		rt.pipe.append(tc, rf, kind)
		return
	}
	sink := rt.chain.Load().sink
	if kind == xray.Entry {
		sink.OnEnter(tc, rf)
	} else {
		sink.OnExit(tc, rf)
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
	// one entry per Deselector the attached backend delivers to (a Mux fan-out
	// delivers — and counts — per child). Empty when nothing was closed.
	SyntheticExitsByBackend map[string]int `json:"SyntheticExitsByBackend,omitempty"`
	// Sampling carries the sampler's aggregate counters at the time of the
	// re-selection (nil when no sampling policy is installed). Mid-phase
	// they may lag by up to one publication window per rank.
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
	// Every Deselector the backend delivers to (a Mux fans out to several)
	// gets to close its dangling state, and the closures are counted per
	// backend.
	if len(toUnpatch) > 0 {
		rep.SyntheticExits, rep.SyntheticExitsByBackend = rt.closeDangling(rt.chain.Load().leaves, toUnpatch)
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
		c := rt.samplingCounters()
		rep.Sampling = &c
	}
	return rep, nil
}

// Report returns the initialization summary.
func (rt *Runtime) Report() Report { return rt.report }

// Snapshot is a point-in-time view of the runtime's live counters, taken
// under the reconfigure lock so the mutually dependent fields (selection
// size, reconfigs, synthetic exits, accumulated re-patch cost) are
// consistent with each other. It is the runtime block of the control
// plane's GET /v1/status document, so its names, units and JSON tags are
// the wire format.
type Snapshot struct {
	// ActiveFunctions is the current selection size; Patched the start-up
	// count; Reconfigs the applied live re-selections.
	ActiveFunctions int `json:"activeFunctions"`
	Patched         int `json:"patched"`
	Reconfigs       int `json:"reconfigs"`
	// InitSeconds is T_init; ReconfigSeconds the accumulated virtual cost
	// of all re-selections.
	InitSeconds     float64 `json:"initSeconds"`
	ReconfigSeconds float64 `json:"reconfigSeconds"`
	// DroppedInFlight / DroppedUnpatched are the split drop counters;
	// SyntheticExits counts dangling enters closed through the Deselector
	// hook across all re-selections and backend swaps, with the
	// per-backend-name breakdown alongside.
	DroppedInFlight         int64            `json:"droppedInFlight"`
	DroppedUnpatched        int64            `json:"droppedUnpatched"`
	SyntheticExits          int64            `json:"syntheticExits"`
	SyntheticExitsByBackend map[string]int64 `json:"syntheticExitsByBackend,omitempty"`
	// Async reports whether the asynchronous event pipeline is attached;
	// PipelineDepth is the number of events currently queued in its rings,
	// DroppedAsync the enter/exit pairs rejected under back-pressure.
	// DroppedAsyncOrphanExits counts exits without a recorded enter (sled
	// patched mid-call) rejected at a full ring — kept out of DroppedAsync
	// because the conservation identity is stated in enter units.
	Async                   bool  `json:"async"`
	PipelineDepth           int64 `json:"pipelineDepth"`
	DroppedAsync            int64 `json:"droppedAsync"`
	DroppedAsyncOrphanExits int64 `json:"droppedAsyncOrphanExits,omitempty"`
	// AsyncBuf is the effective per-rank ring capacity in events (the
	// configured value rounded up to a power of two; 0 when inline) — the
	// base the control plane's ring-sizing hint doubles from.
	AsyncBuf int `json:"asyncBuf,omitempty"`
	// Sampling is the sampler's point-in-time view (policies + counters);
	// nil unless a sampling table is installed or an enter was counted.
	Sampling *SamplingSnapshot `json:"sampling,omitempty"`
}

// Snapshot returns a consistent view of the live counters. Safe to call
// concurrently with handler execution and Reconfigure.
func (rt *Runtime) Snapshot() Snapshot {
	rt.mu.Lock()
	snap := Snapshot{
		ActiveFunctions: rt.ActiveCount(),
		Reconfigs:       rt.reconfigs,
		ReconfigSeconds: float64(rt.reconfigNs) / 1e9,
		SyntheticExits:  rt.synthExits,
	}
	if len(rt.synthByBackend) > 0 {
		snap.SyntheticExitsByBackend = maps.Clone(rt.synthByBackend)
	}
	rt.mu.Unlock()
	snap.Patched = rt.report.Patched
	snap.InitSeconds = float64(rt.report.InitVirtualNs) / 1e9
	snap.DroppedInFlight = rt.droppedInFlight.Load()
	snap.DroppedUnpatched = rt.droppedUnpatched.Load()
	if rt.pipe != nil {
		snap.Async = true
		snap.PipelineDepth = rt.pipe.depthNow()
		snap.DroppedAsync = rt.pipe.dropped()
		snap.DroppedAsyncOrphanExits = rt.pipe.droppedOrphanExits()
		snap.AsyncBuf = rt.pipe.ringCap()
	}
	if sampling := rt.SamplingSnapshot(); sampling.Configured || sampling.Counters.Enters > 0 {
		snap.Sampling = &sampling
	}
	return snap
}

// Backend returns the currently attached measurement backend (a *Mux when
// several are attached, the adapt controller among them).
func (rt *Runtime) Backend() Backend { return rt.chain.Load().sink }

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

// SwapBackend exchanges the attached measurement backend set while the
// runtime is live: the patched sleds are untouched, the handler simply
// starts delivering events to the new backend (atomically — events in
// flight finish on the old one). The swap diffs the two chains' leaves by
// identity (chain.has): a leaf present in both (a partial swap that keeps
// some of a mux's children) keeps its state untouched, and a leaf whose
// dynamic type is not comparable always departs and arrives. Every *departing*
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

	old, next := rt.chain.Load(), newChain(b)
	rep := BackendSwapReport{From: old.sink.Name(), To: b.Name()}
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
	rt.chain.Store(next)
	// A leaf in both chains keeps its open state live and was connected,
	// and charged, at its own attach.
	rep.SyntheticExits, rep.SyntheticExitsByBackend = rt.closeDangling(old.without(next), *rt.active.Load())
	rep.VirtualNs, _ = rt.attach(next.without(old))
	return rep, nil
}

// Resolved returns the resolved function record for a packed ID, nil for
// an ID the runtime never resolved.
func (rt *Runtime) Resolved(id int32) *ResolvedFunc { return rt.slot(id) }

// Funcs returns every resolved function, sorted by packed ID.
func (rt *Runtime) Funcs() []*ResolvedFunc {
	out := make([]*ResolvedFunc, 0, rt.NumFuncs())
	return slices.AppendSeq(out, rt.all())
}

// NumFuncs returns how many functions the runtime resolved, named or not:
// the length of a table indexed by Index.
func (rt *Runtime) NumFuncs() int { return rt.report.FunctionsResolved + rt.report.Unresolved }

// Index returns rf's position in packed-ID order, in [0, NumFuncs()): a
// dense key for per-function tables sized once from NumFuncs.
func (rt *Runtime) Index(rf *ResolvedFunc) int {
	return rt.bases[uint32(rf.PackedID)>>24] + int(uint32(rf.PackedID)&xray.MaxFuncID)
}

// Ranks returns the number of dispatching ranks (Options.Ranks, defaulted):
// the length of a table indexed by rank ID.
func (rt *Runtime) Ranks() int { return rt.opts.Ranks }

// ByName returns the resolved function of that name, or nil: the slot of the
// build's packed ID for it (obj.Process.PackedID), if it resolved to that
// very name. So a hidden DSO function is reachable by ID only (§VI-B(a)).
func (rt *Runtime) ByName(name string) *ResolvedFunc {
	if id, ok := rt.proc.PackedID(name); ok {
		if rf := rt.slot(id); rf != nil && rf.Name == name {
			return rf
		}
	}
	return nil
}

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
// the ID is unknown. Lock-free; the status document's per-endpoint
// demoted-function count reads it.
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

// Close removes the event handler New installed, as XRay's handler removal
// does, so an event dispatched afterwards reaches neither a backend nor the
// async rings; then it drains and stops the async consumer pool. Like
// FlushSampling it requires quiescence: no rank may dispatch events
// concurrently with it. Safe to call more than once.
func (rt *Runtime) Close() {
	rt.xr.SetHandler(nil)
	if rt.pipe != nil {
		rt.pipe.drain()
		rt.pipe.close()
	}
}
