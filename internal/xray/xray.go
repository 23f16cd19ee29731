// Package xray reimplements the runtime side of LLVM's XRay instrumentation
// together with the DSO extension the paper contributes (§V-A/§V-B):
//
//   - a runtime registry of patchable objects — the executable is always
//     object 0, dynamically loaded shared objects register through the
//     xray-dso mechanism and receive IDs 1..255;
//   - packed function IDs (Fig. 4): 8 bits of object ID, 24 bits of
//     object-local function ID, keeping the external 32-bit API unchanged;
//   - sled patching under mprotect: the pages containing a function's sleds
//     are made writable, the NOP sleds are rewritten into trampoline jumps,
//     and the protection is restored;
//   - per-object trampolines (position-independent for DSOs) dispatching to
//     a process-wide event handler.
//
// Handlers receive an explicit ThreadCtx (rank + virtual clock) instead of
// reading TLS — the one deliberate API deviation from real XRay: simulated
// ranks are goroutines, which have no thread-local storage, and the handler
// needs the executing rank's virtual clock to charge its costs.
package xray

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"capi/internal/mem"
	"capi/internal/obj"
	"capi/internal/vtime"
)

// DispatchCostNs is the virtual trampoline + handler-invocation overhead
// paid per event when a sled is patched, on top of whatever the handler
// itself charges. The execution engine charges it per event, and the adapt
// controller budgets events at it.
const DispatchCostNs = 25 * vtime.Nanosecond

// Packed-ID layout (Fig. 4): 8-bit object ID, 24-bit function ID.
const (
	// MaxDSOs is the maximum number of registrable shared objects
	// (object IDs 1..255; ID 0 is the main executable).
	MaxDSOs = 255
	// MaxFuncID is the largest object-local function ID (≈16.7 million
	// functions per object; the paper's largest OpenFOAM object uses
	// 28,687 IDs).
	MaxFuncID = 1<<24 - 1
)

// PackID combines an object ID and an object-local function ID into the
// packed 32-bit ID passed to handlers. The main executable is object 0, so
// its packed IDs equal its function IDs — preserving backwards
// compatibility with DSO-unaware tools.
func PackID(object uint8, fn uint32) (int32, error) {
	if fn > MaxFuncID {
		return 0, fmt.Errorf("xray: function ID %d exceeds 24-bit limit", fn)
	}
	return int32(uint32(object)<<24 | fn), nil
}

// UnpackID splits a packed ID into object ID and function ID.
func UnpackID(id int32) (object uint8, fn uint32) {
	u := uint32(id)
	return uint8(u >> 24), u & MaxFuncID
}

// EntryType tells a handler which kind of instrumentation point fired.
type EntryType uint8

// Entry and exit events (tail-call exits are folded into Exit).
const (
	Entry EntryType = iota
	Exit
)

func (e EntryType) String() string {
	if e == Entry {
		return "entry"
	}
	return "exit"
}

// ThreadCtx is the execution context a handler runs under: the simulated
// MPI rank and its virtual clock (for charging measurement costs).
type ThreadCtx interface {
	RankID() int
	Clock() *vtime.Clock
}

// Handler is the XRay event handler: it receives the packed function ID and
// the event type, exactly like __xray_set_handler's callback.
type Handler func(tc ThreadCtx, id int32, kind EntryType)

// Trampoline models a per-object trampoline pair. DSO trampolines must be
// position-independent (addressing the handler through the GOT, §V-B2);
// the executable's may use absolute addressing.
type Trampoline struct {
	Object              string
	PositionIndependent bool
}

// Stats counts patching work for the init-time cost model and for the
// live-reconfiguration batch path.
type Stats struct {
	PatchedSleds   int64
	UnpatchedSleds int64
	MprotectPages  int64
	MprotectCalls  int64

	// BatchCalls counts PatchBatch invocations.
	BatchCalls int64
	// BatchFuncs counts functions processed through PatchBatch.
	BatchFuncs int64
	// BatchWindows counts the mprotect open/close windows PatchBatch used;
	// page coalescing makes this (much) smaller than BatchFuncs when sleds
	// share text pages.
	BatchWindows int64
}

// Add accumulates another Stats value into s.
func (s *Stats) Add(d Stats) {
	s.PatchedSleds += d.PatchedSleds
	s.UnpatchedSleds += d.UnpatchedSleds
	s.MprotectPages += d.MprotectPages
	s.MprotectCalls += d.MprotectCalls
	s.BatchCalls += d.BatchCalls
	s.BatchFuncs += d.BatchFuncs
	s.BatchWindows += d.BatchWindows
}

type objectState struct {
	lo         *obj.LoadedObject
	trampoline Trampoline
}

// Runtime is the XRay runtime for one process.
type Runtime struct {
	proc *obj.Process

	mu      sync.Mutex
	objects [MaxDSOs + 1]*objectState   //capi:guardedby mu
	objID   map[*obj.LoadedObject]uint8 //capi:guardedby mu
	nextDSO int                         //capi:guardedby mu

	// patchMu serializes sled rewriting (the mprotect open/write/close
	// dance): concurrent patch operations must not interleave their
	// protection windows.
	patchMu sync.Mutex

	handler atomic.Value // of Handler
	stats   Stats        //capi:guardedby mu
}

// NewRuntime creates the runtime for a process: the executable is
// registered as object 0 (when patchable), every already-loaded patchable
// DSO is registered, and loader hooks keep future dlopen/dlclose in sync —
// this models the xray-dso constructor/destructor registration.
func NewRuntime(p *obj.Process) (*Runtime, error) {
	rt := &Runtime{proc: p, objID: map[*obj.LoadedObject]uint8{}, nextDSO: 1}
	exe := p.Executable()
	if exe.Image.Patchable {
		if exe.Image.NumFuncIDs > MaxFuncID+1 {
			return nil, fmt.Errorf("xray: executable uses %d function IDs (limit %d)", exe.Image.NumFuncIDs, MaxFuncID+1)
		}
		//capi:unguarded-ok NewRuntime has not published rt to any other goroutine yet
		rt.objects[0] = &objectState{lo: exe, trampoline: Trampoline{Object: exe.Image.Name}}
		//capi:unguarded-ok NewRuntime has not published rt to any other goroutine yet
		rt.objID[exe] = 0
	}
	for _, lo := range p.Objects() {
		if lo == exe || !lo.Image.Patchable {
			continue
		}
		if _, err := rt.RegisterObject(lo); err != nil {
			return nil, err
		}
	}
	p.OnLoad(func(lo *obj.LoadedObject) {
		if lo.Image.Patchable {
			_, _ = rt.RegisterObject(lo)
		}
	})
	p.OnUnload(func(lo *obj.LoadedObject) {
		if id, ok := rt.ObjectID(lo); ok && id != 0 {
			_ = rt.UnregisterObject(id)
		}
	})
	return rt, nil
}

// RegisterObject registers a patchable DSO, assigning it the next object ID
// (1..255). It returns the assigned ID. Registering more than MaxDSOs
// objects fails, as does an object exceeding the 24-bit function-ID space.
func (rt *Runtime) RegisterObject(lo *obj.LoadedObject) (uint8, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !lo.Image.Patchable {
		return 0, fmt.Errorf("xray: object %q is not patchable", lo.Image.Name)
	}
	if _, dup := rt.objID[lo]; dup {
		return 0, fmt.Errorf("xray: object %q already registered", lo.Image.Name)
	}
	if lo.Image.NumFuncIDs > MaxFuncID+1 {
		return 0, fmt.Errorf("xray: object %q uses %d function IDs (limit %d)", lo.Image.Name, lo.Image.NumFuncIDs, MaxFuncID+1)
	}
	// Find a free slot (IDs may have been released by dlclose).
	for i := 0; i < MaxDSOs; i++ {
		id := uint8((rt.nextDSO-1+i)%MaxDSOs) + 1
		if rt.objects[id] == nil {
			rt.objects[id] = &objectState{
				lo:         lo,
				trampoline: Trampoline{Object: lo.Image.Name, PositionIndependent: true},
			}
			rt.objID[lo] = id
			rt.nextDSO = int(id) + 1
			return id, nil
		}
	}
	return 0, fmt.Errorf("xray: object limit reached (%d DSOs)", MaxDSOs)
}

// UnregisterObject releases a DSO's object ID (dlclose path). Its sleds are
// gone with the mapping; no unpatching is attempted.
func (rt *Runtime) UnregisterObject(id uint8) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id == 0 {
		return fmt.Errorf("xray: cannot unregister the main executable")
	}
	st := rt.objects[id]
	if st == nil {
		return fmt.Errorf("xray: object ID %d not registered", id)
	}
	delete(rt.objID, st.lo)
	rt.objects[id] = nil
	return nil
}

// ObjectID returns the object ID assigned to a loaded object.
func (rt *Runtime) ObjectID(lo *obj.LoadedObject) (uint8, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id, ok := rt.objID[lo]
	return id, ok
}

// Object returns the loaded object registered under the given ID.
func (rt *Runtime) Object(id uint8) (*obj.LoadedObject, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.objects[id]
	if st == nil {
		return nil, false
	}
	return st.lo, true
}

// Objects returns the registered (object ID, loaded object) pairs in ID
// order.
func (rt *Runtime) Objects() map[uint8]*obj.LoadedObject {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[uint8]*obj.LoadedObject, len(rt.objID))
	for lo, id := range rt.objID {
		out[id] = lo
	}
	return out
}

// Trampoline returns the trampoline descriptor for an object ID.
func (rt *Runtime) Trampoline(id uint8) (Trampoline, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.objects[id]
	if st == nil {
		return Trampoline{}, false
	}
	return st.trampoline, true
}

// FunctionAddress returns the absolute entry address of the function with
// the given packed ID — the __xray_function_address equivalent DynCaPI uses
// to cross-check its symbol mapping (§VI-B(a)).
func (rt *Runtime) FunctionAddress(id int32) (uint64, error) {
	objID, fn := UnpackID(id)
	rt.mu.Lock()
	st := rt.objects[objID]
	rt.mu.Unlock()
	if st == nil {
		return 0, fmt.Errorf("xray: object %d not registered", objID)
	}
	off, ok := st.lo.Image.FuncEntryOffset(fn)
	if !ok {
		return 0, fmt.Errorf("xray: object %d has no function %d", objID, fn)
	}
	return st.lo.Base + off, nil
}

// SetHandler installs the process-wide event handler (nil removes it).
func (rt *Runtime) SetHandler(h Handler) { rt.handler.Store(h) }

// Dispatch invokes the installed handler for a patched sled; the execution
// engine calls it from the trampoline site. A missing handler is a no-op,
// as in real XRay. One atomic load and an indirect call — the entry point
// of the event hot path.
//
//capi:hotpath
func (rt *Runtime) Dispatch(tc ThreadCtx, id int32, kind EntryType) {
	if h, ok := rt.handler.Load().(Handler); ok && h != nil {
		h(tc, id, kind)
	}
}

// setSleds patches or unpatches all sleds of one function, performing the
// mprotect dance on the containing pages.
func (rt *Runtime) setSleds(st *objectState, fn uint32, patched bool) error {
	sleds := st.lo.Image.FuncSleds(fn)
	if len(sleds) == 0 {
		return fmt.Errorf("xray: object %q has no sleds for function %d", st.lo.Image.Name, fn)
	}
	rt.patchMu.Lock()
	defer rt.patchMu.Unlock()
	delta, err := rt.writeWindow(st, sleds, patched)
	rt.addStats(delta)
	return err
}

// writeWindow opens one mprotect window spanning the given sleds of one
// object, rewrites them, and restores the protection. Callers hold patchMu.
func (rt *Runtime) writeWindow(st *objectState, sleds []int, patched bool) (Stats, error) {
	lo, hi := st.lo.SledAddr(sleds[0]), st.lo.SledAddr(sleds[0])
	for _, si := range sleds {
		a := st.lo.SledAddr(si)
		if a < lo {
			lo = a
		}
		if a+obj.SledBytes > hi {
			hi = a + obj.SledBytes
		}
	}
	var delta Stats
	pages, err := rt.proc.AS.Mprotect(lo, hi-lo, mem.ProtRead|mem.ProtWrite|mem.ProtExec)
	if err != nil {
		return delta, fmt.Errorf("xray: making sleds writable: %w", err)
	}
	delta.MprotectCalls++
	delta.MprotectPages += int64(pages)
	var firstErr error
	for _, si := range sleds {
		if err := st.lo.WriteSled(si, patched); err != nil && firstErr == nil {
			firstErr = err
		}
		if patched {
			delta.PatchedSleds++
		} else {
			delta.UnpatchedSleds++
		}
	}
	if _, err := rt.proc.AS.Mprotect(lo, hi-lo, mem.ProtRead|mem.ProtExec); err != nil && firstErr == nil {
		firstErr = err
	}
	delta.MprotectCalls++
	return delta, firstErr
}

func (rt *Runtime) addStats(delta Stats) {
	rt.mu.Lock()
	rt.stats.Add(delta)
	rt.mu.Unlock()
}

// PatchBatch patches (or unpatches) many functions under coalesced mprotect
// windows: the sleds of all requested functions are grouped per object and
// per run of contiguous text pages, so one protection open/close window
// covers every sled on those pages — the batch equivalent of setSleds that
// makes live re-selection cheap (one window per dirty page run instead of
// two mprotect calls per function). It returns the stats delta of this
// batch; the delta is also accumulated into the runtime's Stats.
//
// All IDs are validated before any sled is touched, so an invalid ID leaves
// the sled state unchanged.
func (rt *Runtime) PatchBatch(ids []int32, patch bool) (Stats, error) {
	// DynCaPI hands over sorted, duplicate-free IDs; any other list is made
	// so. Sorted, the IDs of one object are adjacent.
	if !strictlyIncreasing(ids) {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	// All IDs are validated, object by object, before any sled is touched.
	type objRun struct {
		st  *objectState
		ids []int32
	}
	var runs []objRun
	maxSleds := 0
	for i := 0; i < len(ids); {
		st, _, err := rt.objectFor(ids[i])
		if err != nil {
			return Stats{}, err
		}
		object, _ := UnpackID(ids[i])
		j, nSleds := i, 0
		for ; j < len(ids); j++ {
			o, fn := UnpackID(ids[j])
			if o != object {
				break
			}
			if fn >= st.lo.Image.NumFuncIDs {
				return Stats{}, fmt.Errorf("xray: object %q has no function ID %d", st.lo.Image.Name, fn)
			}
			n := len(st.lo.Image.FuncSleds(fn))
			if n == 0 {
				return Stats{}, fmt.Errorf("xray: object %q has no sleds for function %d", st.lo.Image.Name, fn)
			}
			nSleds += n
		}
		runs = append(runs, objRun{st, ids[i:j]})
		maxSleds = max(maxSleds, nSleds)
		i = j
	}

	rt.patchMu.Lock()
	defer rt.patchMu.Unlock()
	var delta Stats
	delta.BatchCalls = 1
	delta.BatchFuncs = int64(len(ids))
	var firstErr error
	sleds := make([]int, 0, maxSleds)
	for _, run := range runs {
		st := run.st
		sleds = sleds[:0]
		for _, id := range run.ids {
			_, fn := UnpackID(id)
			sleds = append(sleds, st.lo.Image.FuncSleds(fn)...)
		}
		slices.SortFunc(sleds, func(a, b int) int { return cmp.Compare(st.lo.SledAddr(a), st.lo.SledAddr(b)) })
		// Split into runs of contiguous pages: a gap of one or more whole
		// pages between consecutive sleds closes the current window, so the
		// batch never opens write access on pages it does not rewrite.
		for start := 0; start < len(sleds); {
			end := start + 1
			lastPage := (st.lo.SledAddr(sleds[start]) + obj.SledBytes - 1) / mem.PageSize
			for end < len(sleds) {
				a := st.lo.SledAddr(sleds[end])
				if a/mem.PageSize > lastPage+1 {
					break
				}
				if p := (a + obj.SledBytes - 1) / mem.PageSize; p > lastPage {
					lastPage = p
				}
				end++
			}
			d, err := rt.writeWindow(st, sleds[start:end], patch)
			delta.Add(d)
			delta.BatchWindows++
			if err != nil && firstErr == nil {
				firstErr = err
			}
			start = end
		}
	}
	rt.addStats(delta)
	return delta, firstErr
}

func strictlyIncreasing(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

func (rt *Runtime) objectFor(id int32) (*objectState, uint32, error) {
	objID, fn := UnpackID(id)
	rt.mu.Lock()
	st := rt.objects[objID]
	rt.mu.Unlock()
	if st == nil {
		return nil, 0, fmt.Errorf("xray: object %d not registered", objID)
	}
	if fn >= st.lo.Image.NumFuncIDs {
		return nil, 0, fmt.Errorf("xray: object %q has no function ID %d", st.lo.Image.Name, fn)
	}
	return st, fn, nil
}

// PatchFunction rewrites the sleds of one function to call the trampoline.
func (rt *Runtime) PatchFunction(id int32) error {
	st, fn, err := rt.objectFor(id)
	if err != nil {
		return err
	}
	return rt.setSleds(st, fn, true)
}

// UnpatchFunction restores the NOP sleds of one function.
func (rt *Runtime) UnpatchFunction(id int32) error {
	st, fn, err := rt.objectFor(id)
	if err != nil {
		return err
	}
	return rt.setSleds(st, fn, false)
}

// Patched reports whether the entry sled of the given function is patched.
func (rt *Runtime) Patched(id int32) bool {
	st, fn, err := rt.objectFor(id)
	if err != nil {
		return false
	}
	for _, si := range st.lo.Image.FuncSleds(fn) {
		if st.lo.Image.Sleds[si].Kind == obj.SledEntry {
			return st.lo.SledPatched(si)
		}
	}
	return false
}

// PatchAll patches every sled of every registered object ("xray full"). It
// returns the number of functions patched.
func (rt *Runtime) PatchAll() (int, error) {
	return rt.setAll(true)
}

// UnpatchAll restores every sled of every registered object.
func (rt *Runtime) UnpatchAll() (int, error) {
	return rt.setAll(false)
}

func (rt *Runtime) setAll(patched bool) (int, error) {
	rt.mu.Lock()
	states := make([]*objectState, 0, len(rt.objID))
	for id := 0; id <= MaxDSOs; id++ {
		if rt.objects[id] != nil {
			states = append(states, rt.objects[id])
		}
	}
	rt.mu.Unlock()
	n := 0
	for _, st := range states {
		for fn := uint32(0); fn < st.lo.Image.NumFuncIDs; fn++ {
			if err := rt.setSleds(st, fn, patched); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// Stats returns a snapshot of the patching statistics.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}
