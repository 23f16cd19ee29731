// Package xray reimplements the runtime side of LLVM's XRay instrumentation
// together with the DSO extension the paper contributes (§V-A/§V-B):
//
//   - a runtime registry of patchable objects, filled once when the runtime
//     is created — the executable is always object 0, shared objects
//     register through the xray-dso mechanism and receive IDs 1..255 in
//     load order;
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

// ErrObjectLimit is the error for a process with more than MaxDSOs patchable
// DSOs: the 256th would need an object ID that aliases the executable's.
var ErrObjectLimit = fmt.Errorf("xray: object limit reached (%d DSOs)", MaxDSOs)

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

// Stats counts the patching work of one PatchBatch call, for the init-time
// cost model and the live-reconfiguration report.
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

// Runtime is the XRay runtime for one process. Its object table, indexed
// by object ID, is filled by NewRuntime and never written again, so every
// lookup is a plain read; ObjectID and Trampoline are derived from it.
type Runtime struct {
	proc *obj.Process

	objects [MaxDSOs + 1]*obj.LoadedObject

	// patchMu serializes sled rewriting (the mprotect open/write/close
	// dance): concurrent patch operations must not interleave their
	// protection windows.
	patchMu sync.Mutex

	handler atomic.Value // of Handler
}

// ObjectIDs hands out object IDs to patchable images in load order, the rule
// NewRuntime and a build's packed-ID table share: the executable is object
// 0, each DSO the next of 1..MaxDSOs. Next fails for an image past the
// 24-bit function-ID space and for a DSO past the last ID (ErrObjectLimit).
type ObjectIDs struct{ dsos int }

// Next returns the object ID of the next patchable image in load order.
func (a *ObjectIDs) Next(im *obj.Image) (uint8, error) {
	switch {
	case im.NumFuncIDs > MaxFuncID+1:
		return 0, fmt.Errorf("xray: object %q uses %d function IDs (limit %d)", im.Name, im.NumFuncIDs, MaxFuncID+1)
	case im.Exe:
		return 0, nil
	case a.dsos == MaxDSOs:
		return 0, ErrObjectLimit
	}
	a.dsos++
	return uint8(a.dsos), nil
}

// NewRuntime creates the runtime for a process — the xray-dso constructor
// registration, run once for the whole process image: every patchable
// object is registered under the ID ObjectIDs gives it. It fails when an
// object exceeds the 24-bit function-ID space or the process has more than
// MaxDSOs patchable DSOs.
func NewRuntime(p *obj.Process) (*Runtime, error) {
	rt := &Runtime{proc: p}
	var ids ObjectIDs
	for _, lo := range p.Objects() {
		if !lo.Image.Patchable {
			continue
		}
		id, err := ids.Next(lo.Image)
		if err != nil {
			return nil, err
		}
		rt.objects[id] = lo
	}
	return rt, nil
}

// ObjectID returns the object ID assigned to a loaded object.
func (rt *Runtime) ObjectID(lo *obj.LoadedObject) (uint8, bool) {
	if id := slices.Index(rt.objects[:], lo); lo != nil && id >= 0 {
		return uint8(id), true
	}
	return 0, false
}

// Object returns the loaded object registered under the given ID.
func (rt *Runtime) Object(id uint8) (*obj.LoadedObject, bool) {
	lo := rt.objects[id]
	return lo, lo != nil
}

// Trampoline returns the trampoline descriptor for an object ID: a DSO's
// is position-independent, the executable's is not.
func (rt *Runtime) Trampoline(id uint8) (Trampoline, bool) {
	lo := rt.objects[id]
	if lo == nil {
		return Trampoline{}, false
	}
	return Trampoline{Object: lo.Image.Name, PositionIndependent: !lo.Image.Exe}, true
}

// FunctionAddress returns the absolute entry address of the function with
// the given packed ID — the __xray_function_address equivalent DynCaPI uses
// to cross-check its symbol mapping (§VI-B(a)).
func (rt *Runtime) FunctionAddress(id int32) (uint64, error) {
	objID, fn := UnpackID(id)
	lo := rt.objects[objID]
	if lo == nil {
		return 0, fmt.Errorf("xray: object %d not registered", objID)
	}
	off, ok := lo.Image.FuncEntryOffset(fn)
	if !ok {
		return 0, fmt.Errorf("xray: object %d has no function %d", objID, fn)
	}
	return lo.Base + off, nil
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

// writeWindow opens one mprotect window spanning the given sleds of one
// object, rewrites them, and restores the protection. Callers hold patchMu.
func (rt *Runtime) writeWindow(o *obj.LoadedObject, sleds []int, patched bool) (Stats, error) {
	lo, hi := o.SledAddr(sleds[0]), o.SledAddr(sleds[0])
	for _, si := range sleds {
		a := o.SledAddr(si)
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
		if err := o.WriteSled(si, patched); err != nil && firstErr == nil {
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

// PatchBatch patches (or unpatches) many functions under coalesced mprotect
// windows: the sleds of all requested functions are grouped per object and
// per run of contiguous text pages, so one protection open/close window
// covers every sled on those pages — one window per dirty page run instead
// of two mprotect calls per function, which makes live re-selection cheap.
// It returns this batch's stats; the runtime keeps no total across batches.
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
		lo  *obj.LoadedObject
		ids []int32
	}
	var runs []objRun
	maxSleds := 0
	for i := 0; i < len(ids); {
		lo, _, err := rt.objectFor(ids[i])
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
			if fn >= lo.Image.NumFuncIDs {
				return Stats{}, fmt.Errorf("xray: object %q has no function ID %d", lo.Image.Name, fn)
			}
			n := len(lo.Image.FuncSleds(fn))
			if n == 0 {
				return Stats{}, fmt.Errorf("xray: object %q has no sleds for function %d", lo.Image.Name, fn)
			}
			nSleds += n
		}
		runs = append(runs, objRun{lo, ids[i:j]})
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
		lo := run.lo
		sleds = sleds[:0]
		for _, id := range run.ids {
			_, fn := UnpackID(id)
			for _, si := range lo.Image.FuncSleds(fn) {
				sleds = append(sleds, int(si))
			}
		}
		slices.SortFunc(sleds, func(a, b int) int { return cmp.Compare(lo.SledAddr(a), lo.SledAddr(b)) })
		// Split into runs of contiguous pages: a gap of one or more whole
		// pages between consecutive sleds closes the current window, so the
		// batch never opens write access on pages it does not rewrite.
		for start := 0; start < len(sleds); {
			end := start + 1
			lastPage := (lo.SledAddr(sleds[start]) + obj.SledBytes - 1) / mem.PageSize
			for end < len(sleds) {
				a := lo.SledAddr(sleds[end])
				if a/mem.PageSize > lastPage+1 {
					break
				}
				if p := (a + obj.SledBytes - 1) / mem.PageSize; p > lastPage {
					lastPage = p
				}
				end++
			}
			d, err := rt.writeWindow(lo, sleds[start:end], patch)
			delta.Add(d)
			delta.BatchWindows++
			if err != nil && firstErr == nil {
				firstErr = err
			}
			start = end
		}
	}
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

func (rt *Runtime) objectFor(id int32) (*obj.LoadedObject, uint32, error) {
	objID, fn := UnpackID(id)
	lo := rt.objects[objID]
	if lo == nil {
		return nil, 0, fmt.Errorf("xray: object %d not registered", objID)
	}
	if fn >= lo.Image.NumFuncIDs {
		return nil, 0, fmt.Errorf("xray: object %q has no function ID %d", lo.Image.Name, fn)
	}
	return lo, fn, nil
}

// Patched reports whether the entry sled of the given function is patched.
func (rt *Runtime) Patched(id int32) bool {
	lo, fn, err := rt.objectFor(id)
	if err != nil {
		return false
	}
	for _, si := range lo.Image.FuncSleds(fn) {
		if lo.Image.Sleds[si].Kind == obj.SledEntry {
			return lo.SledPatched(int(si))
		}
	}
	return false
}
