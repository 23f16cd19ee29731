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
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"capi/internal/ic"
	"capi/internal/obj"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// ResolvedFunc is one instrumentable function as seen by the runtime.
// Always handle it by pointer: the runtime hangs per-function hot-path
// state off it.
type ResolvedFunc struct {
	PackedID int32
	Addr     uint64
	// Name is empty when the function ID could not be resolved to a
	// symbol (hidden visibility in a DSO).
	Name string

	// sample points at the function's sampling/suppression state once a
	// policy has ever been installed (nil = deliver everything, the fast
	// path). The handler loads it atomically right after the active-set
	// lookup, so changing a function's sampling rate never locks the hot
	// path. Set under Runtime.mu, never cleared back to nil — a cleared
	// policy keeps the pairing stacks so open pairs stay balanced.
	sample atomic.Pointer[funcSampleState]
}

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
// function, after the new active set is published and the delta sleds are
// re-patched. It returns the number of dangling enters it closed (the
// synthetic exits delivered); the total is reported in
// ReconfigReport.SyntheticExits. Backends whose per-event state needs no
// closing (cyg-profile, the extrae tracer — trace completeness is asserted
// through the split drop counters instead) simply do not implement the
// interface.
type Deselector interface {
	OnDeselect(fn *ResolvedFunc) int
}

// CostModel holds the virtual-time costs of runtime initialization.
type CostModel struct {
	// PerSledResolve: determining address and name of one function ID.
	PerSledResolve int64
	// PerSymbolNM: scanning one symbol from an object file.
	PerSymbolNM int64
	// PerPatch: patching one function's sleds (mprotect amortized).
	PerPatch int64
	// Base: fixed start-up cost of the DynCaPI library itself.
	Base int64
}

// DefaultCostModel is calibrated so that full-scale OpenFOAM lands in the
// paper's T_init ballpark (seconds, §VI-C).
func DefaultCostModel() CostModel {
	return CostModel{
		PerSledResolve: 12 * vtime.Microsecond,
		PerSymbolNM:    2 * vtime.Microsecond,
		PerPatch:       12 * vtime.Microsecond,
		Base:           25 * vtime.Millisecond,
	}
}

// Options configures the runtime.
type Options struct {
	// PatchAll ignores the IC and patches every sled ("xray full").
	PatchAll bool
	Costs    CostModel
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
// firing on every rank) may overlap with Reconfigure. The full resolution
// table (byID) is immutable after New; the handler looks up the *currently
// selected* subset through an atomically swapped map, and all mutating
// operations (Reconfigure) serialize on an internal mutex.
type Runtime struct {
	proc *obj.Process
	xr   *xray.Runtime
	opts Options

	// backend holds the attached measurement backend (possibly a Mux
	// fan-out, possibly wrapped by the adapt controller). The handler loads
	// it atomically on every event so SwapBackend can exchange the whole
	// backend set while ranks execute.
	backend atomic.Value // of backendBox

	// byID is the full function-ID → resolution table. It is built once in
	// New and never mutated afterwards, so handlers may read it lock-free.
	byID   map[int32]*ResolvedFunc
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

	// active holds the map[int32]*ResolvedFunc of currently selected
	// functions. The handler loads it atomically on every event;
	// Reconfigure swaps in a fresh map (copy-on-write), so in-flight events
	// for freshly deselected functions are dropped instead of racing the
	// sled rewrite.
	active atomic.Value

	// deselected holds the map[int32]struct{} of functions removed by the
	// most recent Reconfigure, so the handler can tell a deselected
	// in-flight drop apart from a spurious event for an unpatched-but-known
	// function; a function that a later Reconfigure selected again stays in
	// it while it stays selected (see Reconfigure). Swapped atomically
	// alongside active.
	deselected atomic.Value

	// droppedInFlight counts events that arrived for functions removed by
	// the latest re-selection — the window between publishing the new
	// active set and the sled restore taking effect. droppedUnpatched
	// counts events for known functions outside both the active set and
	// that window (a sled hit that should not have happened). The split
	// lets trace completeness be asserted: dispatched events ==
	// delivered + droppedInFlight + droppedUnpatched.
	droppedInFlight  atomic.Int64
	droppedUnpatched atomic.Int64

	// synthExits accumulates the synthetic exits delivered through the
	// Deselector hook across all reconfigurations; synthByBackend breaks
	// them down per backend name (both guarded by mu).
	synthExits     int64            //capi:guardedby mu
	synthByBackend map[string]int64 //capi:guardedby mu

	// Sampling state (see sampler.go). samplePolicies holds the explicit
	// per-ID overrides and sampleDefault the table's default policy (both
	// guarded by mu); defaultSample publishes the default to the handler,
	// which materializes per-function state lazily on a function's first
	// event — a table-wide default never allocates for functions that
	// never fire. sampleRanks sizes the preallocated per-rank slots.
	samplePolicies map[int32]SamplePolicy //capi:guardedby mu
	sampleDefault  *SamplePolicy          //capi:guardedby mu
	defaultSample  atomic.Pointer[SamplePolicy]
	sampleRanks    int

	// pipe is the asynchronous event pipeline (nil in inline mode). Set in
	// New before the handler is installed and never reassigned, so handlers
	// and accessors may read it without synchronization.
	pipe *pipeline

	// The re-selection state below sits after everything the handlers read,
	// whose layout it therefore does not move.

	// byName indexes the resolved functions by symbol name (one name may
	// resolve in several objects), built with byID and as immutable: a
	// selection is looked up from its ~10^3 names, not by probing it once
	// for each of the ~10^4 functions.
	byName map[string][]*ResolvedFunc
	// activeFuncs is the current selection sorted by packed ID — the keys
	// and values of the published active map, kept so the next delta is a
	// merge of two sorted slices.
	activeFuncs []*ResolvedFunc //capi:guardedby mu
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
	if opts.Costs == (CostModel{}) {
		opts.Costs = DefaultCostModel()
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 16
	}
	rt := &Runtime{
		proc:           proc,
		xr:             xr,
		cfg:            cfg,
		opts:           opts,
		byID:           map[int32]*ResolvedFunc{},
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
	rt.report.InitVirtualNs += opts.Costs.Base
	rt.report.InitVirtualNs += backend.InitCost(rt.report.SymbolsScanned)
	if opts.Async {
		rt.pipe = newPipeline(rt, opts.Ranks, opts.AsyncBuf)
	}
	rt.installHandler()
	return rt, nil
}

// loadBackend returns the currently attached backend.
func (rt *Runtime) loadBackend() Backend {
	return rt.backend.Load().(backendBox).b
}

// backendUnwrapper is implemented by bridge backends (the adaptive
// controller) that wrap the real measurement backend.
type backendUnwrapper interface {
	Inner() Backend
}

// symbolInjectors finds every SymbolInjector in the backend graph, looking
// through bridge backends (the adapt controller) and fan-outs (Mux) so
// wrapping or multiplexing (e.g. the controller around a talp+scorep mux)
// does not silently disable DSO symbol injection for any consumer.
func symbolInjectors(b Backend) []SymbolInjector {
	var out []SymbolInjector
	walkBackends(b, func(b Backend) {
		if inj, ok := b.(SymbolInjector); ok {
			out = append(out, inj)
		}
	})
	return out
}

// walkBackends visits every backend in the graph rooted at b: b itself,
// the inner backend of every bridge (backendUnwrapper) and the children of
// every fan-out (Mux), depth-first in delivery order.
func walkBackends(b Backend, visit func(Backend)) {
	for b != nil {
		visit(b)
		if f, ok := b.(fanout); ok {
			for _, c := range f.Children() {
				walkBackends(c, visit)
			}
			return
		}
		w, ok := b.(backendUnwrapper)
		if !ok {
			return
		}
		b = w.Inner()
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

// resolve builds the function-ID → name mapping per object. The executable
// is resolved from its full symbol table; DSOs only expose their dynamic
// symbols, so hidden functions stay unresolved (§VI-B(a)).
func (rt *Runtime) resolve() error {
	injectors := symbolInjectors(rt.loadBackend())
	for objID, lo := range rt.xr.Objects() {
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
		rt.report.InitVirtualNs += int64(len(syms)) * rt.opts.Costs.PerSymbolNM

		for fn := uint32(0); fn < lo.Image.NumFuncIDs; fn++ {
			packed, err := xray.PackID(objID, fn)
			if err != nil {
				return fmt.Errorf("dyncapi: object %q: %w", lo.Image.Name, err)
			}
			addr, err := rt.xr.FunctionAddress(packed)
			if err != nil {
				return fmt.Errorf("dyncapi: resolving %q fn %d: %w", lo.Image.Name, fn, err)
			}
			rf := &ResolvedFunc{PackedID: packed, Addr: addr}
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
			rt.byID[packed] = rf
			rt.report.InitVirtualNs += rt.opts.Costs.PerSledResolve
		}
	}
	return nil
}

// wantSet computes the subset of resolved functions the given configuration
// selects, sorted by packed ID. A function is selected either by resolved
// name or — the §VI-B(a) extension — by a statically determined packed ID
// carried in the IC, which also covers hidden DSO symbols that name
// resolution cannot reach.
func (rt *Runtime) wantSet(cfg *ic.Config, patchAll bool) []*ResolvedFunc {
	var want []*ResolvedFunc
	switch {
	case patchAll:
		want = make([]*ResolvedFunc, 0, len(rt.byID))
		for _, rf := range rt.byID {
			want = append(want, rf)
		}
	case cfg != nil:
		want = make([]*ResolvedFunc, 0, len(cfg.Include)+len(cfg.IncludeIDs))
		for _, name := range cfg.Include {
			want = append(want, rt.byName[name]...)
		}
		for _, id := range cfg.IncludeIDs {
			if rf := rt.byID[id]; rf != nil {
				want = append(want, rf)
			}
		}
	}
	slices.SortFunc(want, func(a, b *ResolvedFunc) int { return cmp.Compare(a.PackedID, b.PackedID) })
	// A function selected by name and by ID appears twice.
	return slices.Compact(want)
}

// byPackedID builds the map the handlers read from a sorted selection.
func byPackedID(want []*ResolvedFunc) map[int32]*ResolvedFunc {
	active := make(map[int32]*ResolvedFunc, len(want))
	for _, rf := range want {
		active[rf.PackedID] = rf
	}
	return active
}

func sortedIDs(set map[int32]*ResolvedFunc) []int32 {
	ids := make([]int32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// patch applies the initial IC (or patches everything) in one coalesced
// batch and publishes the active set.
func (rt *Runtime) patch() error {
	//capi:unguarded-ok patch runs inside New, before the runtime is published to any other goroutine
	want := rt.wantSet(rt.cfg, rt.opts.PatchAll)
	ids := make([]int32, len(want))
	for i, rf := range want {
		ids[i] = rf.PackedID
		if rf.Name == "" {
			rt.report.PatchedByID++
		}
	}
	if len(ids) > 0 {
		if _, err := rt.xr.PatchBatch(ids, true); err != nil {
			return fmt.Errorf("dyncapi: patching %d functions: %w", len(ids), err)
		}
	}
	rt.report.Patched = len(ids)
	rt.report.InitVirtualNs += int64(len(ids)) * rt.opts.Costs.PerPatch
	rt.activeFuncs = want //capi:unguarded-ok patch runs inside New, before the runtime is published to any other goroutine
	rt.active.Store(byPackedID(want))
	return nil
}

func (rt *Runtime) installHandler() {
	if rt.pipe != nil {
		rt.xr.SetHandler(rt.dispatchAsync)
		return
	}
	rt.xr.SetHandler(rt.dispatch)
}

// dispatch is the XRay event handler — the per-event hot path: active-set
// lookup, drop classification, sampler admission, backend delivery. Two
// atomic loads plus two map reads on the fast path; everything it calls
// stays allocation- and lock-free (the lint hotpath analyzer walks it from
// this annotation).
//
//capi:hotpath
func (rt *Runtime) dispatch(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	rf := m[id]
	if rf == nil {
		if rt.byID[id] != nil {
			if d, _ := rt.deselected.Load().(map[int32]struct{}); d != nil {
				if _, ok := d[id]; ok {
					rt.droppedInFlight.Add(1)
					return
				}
			}
			rt.droppedUnpatched.Add(1)
		}
		return
	}
	// The sampling/suppression stage: two atomic loads on the fast
	// (no-policy) path; with a policy installed, the per-rank decision
	// logic drops sampled-out / suppressed / collapsed pairs before
	// they reach the backend chain. A table-wide default policy is
	// materialized into per-function state here, on the function's
	// first event (lazySampleState), so installing a default never
	// allocates for functions that never fire.
	st := rf.sample.Load()
	if st == nil {
		if dp := rt.defaultSample.Load(); dp != nil {
			st = rt.lazySampleState(rf, dp)
		}
	}
	if st != nil && !st.admit(tc, kind) {
		return
	}
	backend := rt.loadBackend()
	if kind == xray.Entry {
		backend.OnEnter(tc, rf)
	} else {
		backend.OnExit(tc, rf)
	}
}

// dispatchAsync is the XRay event handler in async mode: the same active-set
// lookup, drop classification and sampler admission as dispatch, but instead
// of running the backend chain it appends a fixed-size record to the rank's
// ring (pipeline.go) and returns — the backends consume off the hot path.
// The sampling decision is still made here, synchronously, so the pairing
// stacks see every event in program order and the conservation identity
// survives asynchrony.
//
//capi:hotpath
func (rt *Runtime) dispatchAsync(tc xray.ThreadCtx, id int32, kind xray.EntryType) {
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	rf := m[id]
	if rf == nil {
		if rt.byID[id] != nil {
			if d, _ := rt.deselected.Load().(map[int32]struct{}); d != nil {
				if _, ok := d[id]; ok {
					rt.droppedInFlight.Add(1)
					return
				}
			}
			rt.droppedUnpatched.Add(1)
		}
		return
	}
	st := rf.sample.Load()
	if st == nil {
		if dp := rt.defaultSample.Load(); dp != nil {
			st = rt.lazySampleState(rf, dp)
		}
	}
	if st != nil && !st.admit(tc, kind) {
		return
	}
	rt.pipe.append(tc, rf, kind)
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
	// VirtualNs is the virtual-time cost of the re-patch per the CostModel.
	VirtualNs int64
}

// Reconfigure applies a new instrumentation configuration to the running
// instance without tearing anything down: it diffs the currently selected
// set against the new IC and re-patches only the delta, in coalesced
// batches. The new active set is published to the event handler *before*
// sleds change, so events for deselected functions stop being delivered
// immediately (in-flight sled hits are counted in DroppedEvents).
// Reconfigure is safe to call while handlers execute on other ranks; it
// always replaces a PatchAll selection.
//
// A rank that is *inside* a deselected function when its exit sled is
// restored never fires that exit event (the same is true of real XRay
// unpatching). This used to leak: Score-P kept the region open on the
// simulated call stack forever and TALP never balanced the start. Backends
// implementing Deselector now receive an OnDeselect call per removed
// function — under the reconfigure lock, after the sleds changed — and
// close those dangling enters with synthetic exits; the count is reported
// in ReconfigReport.SyntheticExits. Events still in flight during the
// active-set swap are dropped and counted in DroppedInFlight.
func (rt *Runtime) Reconfigure(cfg *ic.Config) (ReconfigReport, error) {
	if cfg == nil {
		return ReconfigReport{}, fmt.Errorf("dyncapi: reconfigure requires an instrumentation configuration")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	// Both selections are sorted by packed ID: the delta is one merge.
	want, cur := rt.wantSet(cfg, false), rt.activeFuncs
	toPatch, toUnpatch := make([]int32, 0, len(want)), make([]int32, 0, len(cur))
	kept := 0
	for i, j := 0, 0; i < len(want) || j < len(cur); {
		switch {
		case j == len(cur) || (i < len(want) && want[i].PackedID < cur[j].PackedID):
			toPatch = append(toPatch, want[i].PackedID)
			i++
		case i == len(want) || cur[j].PackedID < want[i].PackedID:
			toUnpatch = append(toUnpatch, cur[j].PackedID)
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

	// Publish the new selection first: deselected functions go silent now,
	// newly selected ones only produce events once their sleds are patched.
	// The deselected set is published before the active set so a handler
	// observing the new selection always classifies a straggler as an
	// in-flight drop, never as a spurious sled hit.
	// Both maps are built before either is stored: between the two stores a
	// straggler of the *previous* re-selection finds itself in neither.
	//
	// A handler reads the active set and then the deselected set, and may
	// pair the former from before this re-selection with the latter from
	// after it. A function the previous re-selection removed and this one
	// brings back would then be in neither and count as a spurious sled hit
	// although it is selected — so it stays in the deselected set while it
	// stays selected (the handlers only consult that set for a function
	// missing from the active one).
	active := byPackedID(want)
	desel := make(map[int32]struct{}, len(toUnpatch))
	for _, id := range toUnpatch {
		desel[id] = struct{}{}
	}
	prev, _ := rt.deselected.Load().(map[int32]struct{})
	for id := range prev {
		if active[id] != nil {
			desel[id] = struct{}{}
		}
	}
	rt.deselected.Store(desel)
	rt.active.Store(active)
	rt.activeFuncs = want
	if len(toUnpatch) > 0 {
		d, err := rt.xr.PatchBatch(toUnpatch, false)
		rep.Batch.Add(d)
		if err != nil {
			return rep, fmt.Errorf("dyncapi: unpatching %d functions: %w", len(toUnpatch), err)
		}
	}
	if len(toPatch) > 0 {
		d, err := rt.xr.PatchBatch(toPatch, true)
		rep.Batch.Add(d)
		if err != nil {
			return rep, fmt.Errorf("dyncapi: patching %d functions: %w", len(toPatch), err)
		}
	}
	rep.VirtualNs = int64(len(toPatch)+len(toUnpatch)) * rt.opts.Costs.PerPatch

	// In async mode, drain the pipeline before closing dangling state:
	// deselected functions went silent when the new active set was published
	// above, so waiting for the rings to empty guarantees every already
	// dispatched event has reached the backends before their synthetic exits
	// are delivered — otherwise a queued real exit could arrive after the
	// synthetic one that closed its frame.
	if rt.pipe != nil && len(toUnpatch) > 0 {
		rt.pipe.drain()
	}

	// Deliver synthetic exits for ranks caught inside a deselected
	// function: the sleds are restored, so no real exit can arrive anymore.
	// Every Deselector in the backend graph (the adapt controller may wrap
	// the measurement backend; a Mux fans out to several) gets to close its
	// dangling state, and the closures are counted per backend.
	if len(toUnpatch) > 0 {
		dss := deselectors(rt.loadBackend())
		for _, id := range toUnpatch {
			for _, nd := range dss {
				if n := nd.ds.OnDeselect(rt.byID[id]); n > 0 {
					rep.SyntheticExits += n
					if rep.SyntheticExitsByBackend == nil {
						rep.SyntheticExitsByBackend = map[string]int{}
					}
					rep.SyntheticExitsByBackend[nd.name] += n
				}
			}
		}
		rt.synthExits += int64(rep.SyntheticExits)
		for name, n := range rep.SyntheticExitsByBackend {
			rt.synthByBackend[name] += int64(n)
		}
	}

	rt.cfg = cfg
	rt.opts.PatchAll = false
	rt.reconfigs++
	rt.reconfigNs += rep.VirtualNs
	rep.Seq = rt.reconfigs
	if rt.pipe != nil {
		rep.DroppedAsync = rt.pipe.dropped()
	}
	if rt.sampleDefault != nil || len(rt.samplePolicies) > 0 {
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
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	snap.Active = len(m)
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
// several are attached, the adapt controller when adaptation wraps them).
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
	active, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	for _, nd := range deselectors(old) {
		if keep[any(nd.ds)] {
			// Staying attached: its open state remains live in the new chain.
			continue
		}
		for _, rf := range active {
			if n := nd.ds.OnDeselect(rf); n > 0 {
				rep.SyntheticExits += n
				if rep.SyntheticExitsByBackend == nil {
					rep.SyntheticExitsByBackend = map[string]int{}
				}
				rep.SyntheticExitsByBackend[nd.name] += n
			}
		}
	}
	rt.synthExits += int64(rep.SyntheticExits)
	for name, n := range rep.SyntheticExitsByBackend {
		rt.synthByBackend[name] += int64(n)
	}

	for _, injector := range symbolInjectors(b) {
		if oldSet[any(injector)] {
			// Already attached before the swap: injected at its own attach.
			continue
		}
		for _, s := range rt.dsoSyms {
			injector.InjectSymbol(s.addr, s.name)
		}
	}
	// Start-up cost: only arriving leaves pay. Fan-outs and bridges are
	// skipped so a mux's children are not charged twice (Mux.InitCost sums
	// them already).
	walkBackends(b, func(c Backend) {
		if _, isFan := c.(fanout); isFan {
			return
		}
		if _, isBridge := c.(backendUnwrapper); isBridge {
			return
		}
		if reflect.TypeOf(c).Comparable() && oldSet[c] {
			return
		}
		rep.VirtualNs += c.InitCost(rt.report.SymbolsScanned)
	})
	return rep, nil
}

// Resolved returns the resolved function record for a packed ID.
func (rt *Runtime) Resolved(id int32) *ResolvedFunc { return rt.byID[id] }

// Funcs returns every resolved function, sorted by packed ID.
func (rt *Runtime) Funcs() []*ResolvedFunc {
	out := make([]*ResolvedFunc, 0, len(rt.byID))
	for _, id := range sortedIDs(rt.byID) {
		out = append(out, rt.byID[id])
	}
	return out
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
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	return m[id] != nil
}

// FuncStride returns the function's effective 1-in-N delivery stride:
// its sampling state when one is materialized (SetSampling /
// SetFuncSampling, including adapt demotions), the published table
// default otherwise, and 1 (full delivery) when neither sets a stride or
// the ID is unknown. Lock-free; the HTTP middleware reads it per event to
// model a demoted function's reduced backend cost.
func (rt *Runtime) FuncStride(id int32) int {
	rf := rt.byID[id]
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

// ActiveIDs returns the packed IDs of the current selection, sorted.
func (rt *Runtime) ActiveIDs() []int32 {
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	return sortedIDs(m)
}

// ActiveCount returns the current selection size.
func (rt *Runtime) ActiveCount() int {
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	return len(m)
}

// ActiveFuncs returns the resolved records of the current selection, sorted
// by packed ID.
func (rt *Runtime) ActiveFuncs() []*ResolvedFunc {
	m, _ := rt.active.Load().(map[int32]*ResolvedFunc)
	out := make([]*ResolvedFunc, 0, len(m))
	for _, id := range sortedIDs(m) {
		out = append(out, m[id])
	}
	return out
}

// Reconfigs returns how many live re-selections have been applied.
func (rt *Runtime) Reconfigs() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reconfigs
}

// ReconfigVirtualNs returns the accumulated virtual-time cost of all
// Reconfigure calls (not part of T_init).
func (rt *Runtime) ReconfigVirtualNs() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reconfigNs
}

// DroppedEvents counts every event that fired for a known function outside
// the active selection — the sum of DroppedInFlight and DroppedUnpatched.
func (rt *Runtime) DroppedEvents() int64 {
	return rt.droppedInFlight.Load() + rt.droppedUnpatched.Load()
}

// DroppedInFlight counts events dropped in the window between the latest
// re-selection publishing its active set and the sled restore taking
// effect — the expected, documented drop class.
func (rt *Runtime) DroppedInFlight() int64 { return rt.droppedInFlight.Load() }

// DroppedUnpatched counts events for known functions that were neither
// active nor removed by the latest re-selection — sled hits that should not
// have happened (e.g. a stale patch). A nonzero value indicates a
// patching bug, so trace completeness checks can assert on it separately.
func (rt *Runtime) DroppedUnpatched() int64 { return rt.droppedUnpatched.Load() }

// SyntheticExits returns the accumulated dangling enters closed through the
// Deselector hook across all reconfigurations.
func (rt *Runtime) SyntheticExits() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.synthExits
}

// InitSeconds returns T_init in (virtual) seconds.
func (rt *Runtime) InitSeconds() float64 {
	return float64(rt.report.InitVirtualNs) / float64(vtime.Second)
}

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
