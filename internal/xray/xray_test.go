package xray

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"capi/internal/obj"
	"capi/internal/vtime"
)

// makeImage builds a patchable image with n instrumented functions.
func makeImage(name string, exe bool, n int) *obj.Image {
	im := &obj.Image{Name: name, Exe: exe, Patchable: true}
	var off uint64
	for i := 0; i < n; i++ {
		size := uint64(64)
		im.Symbols = append(im.Symbols, obj.Symbol{
			Name: fmt.Sprintf("%s_f%d", name, i), Value: off, Size: size, Kind: obj.SymFunc,
		})
		id := uint32(i)
		im.Sleds = append(im.Sleds,
			obj.Sled{Offset: off, FuncID: id, Kind: obj.SledEntry},
			obj.Sled{Offset: off + size - obj.SledBytes, FuncID: id, Kind: obj.SledExit},
		)
		im.NumFuncIDs++
		off += size
	}
	im.TextSize = off
	if im.TextSize == 0 {
		im.TextSize = 16
	}
	if err := im.Finalize(); err != nil {
		panic(err)
	}
	return im
}

// newProc builds a process the way compiler.Build.LoadProcess does — the
// executable and every DSO mapped first — and then its XRay runtime.
func newProc(t *testing.T, ndsos, funcsPer int) (*obj.Process, *Runtime) {
	t.Helper()
	dsos := make([]*obj.Image, ndsos)
	for i := range dsos {
		dsos[i] = makeImage(fmt.Sprintf("lib%d.so", i), false, funcsPer)
	}
	return newRuntime(t, makeImage("exe", true, funcsPer), dsos...)
}

func newRuntime(t *testing.T, exe *obj.Image, dsos ...*obj.Image) (*obj.Process, *Runtime) {
	t.Helper()
	p, err := obj.NewProcess(exe, dsos...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, rt
}

type fakeCtx struct {
	rank int
	clk  vtime.Clock
}

func (f *fakeCtx) RankID() int         { return f.rank }
func (f *fakeCtx) Clock() *vtime.Clock { return &f.clk }

func TestPackUnpackID(t *testing.T) {
	id, err := PackID(3, 12345)
	if err != nil {
		t.Fatal(err)
	}
	o, f := UnpackID(id)
	if o != 3 || f != 12345 {
		t.Fatalf("unpack = %d/%d", o, f)
	}
	// Object 0 keeps packed == function ID (backwards compatibility).
	id0, _ := PackID(0, 777)
	if id0 != 777 {
		t.Fatalf("exe packed ID = %d, want 777", id0)
	}
	if _, err := PackID(1, MaxFuncID+1); err == nil {
		t.Fatal("function ID over 24 bits must fail")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(object uint8, fn uint32) bool {
		fn %= MaxFuncID + 1
		id, err := PackID(object, fn)
		if err != nil {
			return false
		}
		o2, f2 := UnpackID(id)
		return o2 == object && f2 == fn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// registered counts the object IDs the runtime assigned.
func registered(rt *Runtime) int {
	n := 0
	for id := range MaxDSOs + 1 {
		if _, ok := rt.Object(uint8(id)); ok {
			n++
		}
	}
	return n
}

func TestRuntimeRegistersExeAndDSOs(t *testing.T) {
	p, rt := newProc(t, 2, 3)
	if n := registered(rt); n != 3 {
		t.Fatalf("registered objects = %d, want 3", n)
	}
	if id, ok := rt.ObjectID(p.Executable()); !ok || id != 0 {
		t.Fatalf("exe object ID = %d, %v", id, ok)
	}
	// DSO trampolines are position independent; the exe's is not.
	tr, ok := rt.Trampoline(0)
	if !ok || tr.PositionIndependent {
		t.Fatalf("exe trampoline = %+v", tr)
	}
	tr1, ok := rt.Trampoline(1)
	if !ok || !tr1.PositionIndependent {
		t.Fatalf("dso trampoline = %+v", tr1)
	}
	if _, ok := rt.Trampoline(99); ok {
		t.Fatal("unregistered trampoline lookup should fail")
	}
}

func TestPatchUnpatchFunction(t *testing.T) {
	p, rt := newProc(t, 1, 4)
	lib := p.Object("lib0.so")
	libID, _ := rt.ObjectID(lib)
	id, _ := PackID(libID, 2)

	if rt.Patched(id) {
		t.Fatal("freshly loaded sleds must be NOP")
	}
	patched, err := rt.PatchBatch([]int32{id}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Patched(id) {
		t.Fatal("function should be patched")
	}
	// Text protection restored after patching.
	if err := lib.WriteSled(0, true); err == nil {
		t.Fatal("text should be read-exec again after patching")
	}
	unpatched, err := rt.PatchBatch([]int32{id}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Patched(id) {
		t.Fatal("function should be unpatched")
	}
	if patched.PatchedSleds != 2 || unpatched.UnpatchedSleds != 2 || patched.MprotectCalls+unpatched.MprotectCalls < 4 {
		t.Fatalf("stats = %+v / %+v", patched, unpatched)
	}
}

func TestPatchErrors(t *testing.T) {
	_, rt := newProc(t, 1, 2)
	// Unregistered object.
	bad, _ := PackID(7, 0)
	if _, err := rt.PatchBatch([]int32{bad}, true); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
	// Function ID out of range.
	bad2, _ := PackID(0, 99)
	if _, err := rt.PatchBatch([]int32{bad2}, true); err == nil || !strings.Contains(err.Error(), "no function ID") {
		t.Fatalf("err = %v", err)
	}
	if rt.Patched(bad2) {
		t.Fatal("out-of-range id cannot be patched")
	}
}

func TestFunctionAddress(t *testing.T) {
	p, rt := newProc(t, 1, 3)
	lib := p.Object("lib0.so")
	libID, _ := rt.ObjectID(lib)
	id, _ := PackID(libID, 1)
	addr, err := rt.FunctionAddress(id)
	if err != nil {
		t.Fatal(err)
	}
	if addr != lib.Base+64 {
		t.Fatalf("addr = %#x, want %#x", addr, lib.Base+64)
	}
	// The function's entry symbol starts there.
	sym, ok := lib.Image.FuncSymbol(1)
	if !ok || sym.Name != "lib0.so_f1" || lib.Base+sym.Value != addr {
		t.Fatalf("entry symbol = %+v, %v", sym, ok)
	}
	if _, err := rt.FunctionAddress(int32(uint32(9)<<24 | 0)); err == nil {
		t.Fatal("unregistered object address lookup should fail")
	}
}

func TestDispatchHandler(t *testing.T) {
	_, rt := newProc(t, 0, 1)
	tc := &fakeCtx{rank: 2}
	// No handler: no-op.
	rt.Dispatch(tc, 0, Entry)

	var events []string
	rt.SetHandler(func(c ThreadCtx, id int32, kind EntryType) {
		events = append(events, fmt.Sprintf("r%d:%d:%s", c.RankID(), id, kind))
		c.Clock().Advance(10)
	})
	rt.Dispatch(tc, 5, Entry)
	rt.Dispatch(tc, 5, Exit)
	if len(events) != 2 || events[0] != "r2:5:entry" || events[1] != "r2:5:exit" {
		t.Fatalf("events = %v", events)
	}
	if tc.clk.Now() != 20 {
		t.Fatalf("handler cost not charged: %d", tc.clk.Now())
	}
	rt.SetHandler(nil)
	rt.Dispatch(tc, 5, Entry)
	if len(events) != 2 {
		t.Fatal("nil handler should disable dispatch")
	}
}

func TestRegisterErrors(t *testing.T) {
	// A non-patchable DSO (a system library) is mapped but gets no ID.
	np := makeImage("plain.so", false, 0)
	np.Patchable = false
	p, rt := newRuntime(t, makeImage("exe", true, 1), makeImage("lib0.so", false, 1), np)
	if _, ok := rt.ObjectID(p.Object("plain.so")); ok {
		t.Fatal("non-patchable DSO must not be registered")
	}
	// An object past the 24-bit function-ID space fails NewRuntime. Only
	// NumFuncIDs is read, so the image needs no sled table.
	huge := &obj.Image{Name: "huge.so", Patchable: true, TextSize: 16, NumFuncIDs: MaxFuncID + 2}
	p, err := obj.NewProcess(makeImage("exe", true, 1), huge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(p); err == nil || !strings.Contains(err.Error(), "function IDs") {
		t.Fatalf("err = %v", err)
	}
}

// TestObjectIDsDenseInLoadOrder: IDs follow load order and skip nothing for
// a system library between two patchable DSOs; a non-patchable executable
// leaves ID 0 free and its DSOs still start at 1.
func TestObjectIDsDenseInLoadOrder(t *testing.T) {
	sys := makeImage("libc.so", false, 1)
	sys.Patchable = false
	for _, exePatchable := range []bool{true, false} {
		exe := makeImage("exe", true, 1)
		exe.Patchable = exePatchable
		p, rt := newRuntime(t, exe, makeImage("a.so", false, 1), sys, makeImage("b.so", false, 1))
		if id, ok := rt.ObjectID(p.Executable()); ok != exePatchable || id != 0 {
			t.Fatalf("exe patchable=%v: ID %d, %v", exePatchable, id, ok)
		}
		for want, name := range []string{"a.so", "b.so"} {
			lo := p.Object(name)
			if id, ok := rt.ObjectID(lo); !ok || id != uint8(want+1) {
				t.Fatalf("%s: ID %d, %v, want %d", name, id, ok, want+1)
			}
			if got, ok := rt.Object(uint8(want + 1)); !ok || got != lo {
				t.Fatalf("Object(%d) is not %s", want+1, name)
			}
		}
		want := 2
		if exePatchable {
			want = 3
		}
		if n := registered(rt); n != want {
			t.Fatalf("exe patchable=%v: %d objects registered, want %d", exePatchable, n, want)
		}
		if _, ok := rt.Object(3); ok {
			t.Fatal("ID 3 assigned with two patchable DSOs")
		}
	}
}

func TestDSOLimit(t *testing.T) {
	// Fill the 255 DSO slots cheaply with tiny images.
	dsos := make([]*obj.Image, MaxDSOs+1)
	for i := range dsos {
		dsos[i] = makeImage(fmt.Sprintf("l%d.so", i), false, 0)
	}
	p, rt := newRuntime(t, makeImage("exe", true, 1), dsos[:MaxDSOs]...)
	if n := registered(rt); n != MaxDSOs+1 {
		t.Fatalf("registered = %d", n)
	}
	if id, ok := rt.ObjectID(p.Object(fmt.Sprintf("l%d.so", MaxDSOs-1))); !ok || id != MaxDSOs {
		t.Fatalf("last DSO ID = %d, %v", id, ok)
	}
	// One more: the process maps it, but the runtime must refuse it.
	p, err := obj.NewProcess(makeImage("exe", true, 1), dsos...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(p); !errors.Is(err, ErrObjectLimit) {
		t.Fatalf("err = %v", err)
	}
}

// TestLookupsDuringPatch: the object table needs no lock, so lookups from
// several goroutines run beside PatchBatch on one runtime (run with -race).
func TestLookupsDuringPatch(t *testing.T) {
	const n = 64
	p, rt := newProc(t, 2, n)
	libID, _ := rt.ObjectID(p.Object("lib1.so"))
	ids := append(batchIDs(t, 0, n), batchIDs(t, libID, n)...)
	const patchers, readers = 2, 4
	var wg sync.WaitGroup
	errs := make(chan error, patchers+readers) // each goroutine sends at most once
	for w := 0; w < patchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if _, err := rt.PatchBatch(ids, round%2 == 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, id := range ids {
					object, fn := UnpackID(id)
					lo, _ := rt.Object(object)
					if addr, err := rt.FunctionAddress(id); err != nil || addr != lo.Base+uint64(fn)*64 {
						errs <- fmt.Errorf("FunctionAddress(%#x) = %#x, %v", id, addr, err)
						return
					}
					if got, ok := rt.ObjectID(lo); !ok || got != object {
						errs <- fmt.Errorf("ObjectID(%s) = %d, %v", lo.Image.Name, got, ok)
						return
					}
				}
				if n := registered(rt); n != 3 {
					errs <- fmt.Errorf("%d objects registered", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 20 rounds per patcher, alternating: every sled ends unpatched.
	if numPatched(p.Executable()) != 0 || numPatched(p.Object("lib1.so")) != 0 {
		t.Fatal("sleds left patched after an even number of rounds per patcher")
	}
}

// batchIDs returns the packed IDs of functions [0,n) of the given object.
func batchIDs(t *testing.T, object uint8, n int) []int32 {
	t.Helper()
	ids := make([]int32, 0, n)
	for fn := 0; fn < n; fn++ {
		id, err := PackID(object, uint32(fn))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestPatchBatchCoalescesPages(t *testing.T) {
	// 64-byte functions: 64 per 4096-byte page, so 128 functions span only
	// two text pages and one batch window must cover dozens of them.
	const n = 128
	_, single := newProc(t, 0, n)
	var singleCalls int64 // 2 per function
	for _, id := range batchIDs(t, 0, n) {
		d, err := single.PatchBatch([]int32{id}, true)
		if err != nil {
			t.Fatal(err)
		}
		singleCalls += d.MprotectCalls
	}

	_, batch := newProc(t, 0, n)
	delta, err := batch.PatchBatch(batchIDs(t, 0, n), true)
	if err != nil {
		t.Fatal(err)
	}
	if delta.MprotectCalls >= singleCalls {
		t.Fatalf("batch used %d mprotect calls, singles used %d — no coalescing",
			delta.MprotectCalls, singleCalls)
	}
	// The whole text is contiguous: one window suffices.
	if delta.BatchWindows != 1 {
		t.Fatalf("batch windows = %d, want 1 (contiguous pages)", delta.BatchWindows)
	}
	if delta.BatchFuncs != n || delta.BatchCalls != 1 {
		t.Fatalf("batch stats = %+v", delta)
	}
	if delta.PatchedSleds != 2*n {
		t.Fatalf("patched sleds = %d, want %d", delta.PatchedSleds, 2*n)
	}
	// Both approaches leave the same sled state.
	for _, id := range batchIDs(t, 0, n) {
		if !single.Patched(id) || !batch.Patched(id) {
			t.Fatalf("fn %d not patched (single %v, batch %v)", id, single.Patched(id), batch.Patched(id))
		}
	}
}

func TestPatchBatchRoundTripRestoresPristineSleds(t *testing.T) {
	const n = 16
	p, rt := newProc(t, 1, n)
	lib := p.Object("lib0.so")
	libID, _ := rt.ObjectID(lib)
	ids := append(batchIDs(t, 0, n), batchIDs(t, libID, n)...)

	exe := p.Executable()
	pristineExe, pristineLib := numPatched(exe), numPatched(lib)
	if pristineExe != 0 || pristineLib != 0 {
		t.Fatalf("fresh objects have patched sleds: %d/%d", pristineExe, pristineLib)
	}

	if _, err := rt.PatchBatch(ids, true); err != nil {
		t.Fatal(err)
	}
	if numPatched(exe) != 2*n || numPatched(lib) != 2*n {
		t.Fatalf("after patch: %d/%d sleds, want %d each", numPatched(exe), numPatched(lib), 2*n)
	}
	if _, err := rt.PatchBatch(ids, false); err != nil {
		t.Fatal(err)
	}
	// Unpatch restores the pristine image: every sled byte back to NOP.
	if numPatched(exe) != 0 || numPatched(lib) != 0 {
		t.Fatalf("after unpatch: %d/%d sleds still patched", numPatched(exe), numPatched(lib))
	}
	for _, id := range ids {
		if rt.Patched(id) {
			t.Fatalf("fn %d still patched after round trip", id)
		}
	}
	if _, err := rt.PatchBatch(ids, true); err != nil {
		t.Fatal(err)
	}
	if numPatched(exe) != 2*n || numPatched(lib) != 2*n {
		t.Fatalf("re-patch: %d/%d sleds, want %d each", numPatched(exe), numPatched(lib), 2*n)
	}
	// Text protection is read-exec again after the batch windows closed.
	if err := exe.WriteSled(0, true); err == nil {
		t.Fatal("text writable after PatchBatch — protection not restored")
	}
}

func TestPatchBatchValidatesBeforePatching(t *testing.T) {
	_, rt := newProc(t, 0, 4)
	bad, _ := PackID(9, 0) // unregistered object
	ids := append(batchIDs(t, 0, 4), bad)
	delta, err := rt.PatchBatch(ids, true)
	if err == nil {
		t.Fatal("batch with invalid ID must fail")
	}
	for _, id := range batchIDs(t, 0, 4) {
		if rt.Patched(id) {
			t.Fatal("failed batch must leave sleds untouched")
		}
	}
	if delta != (Stats{}) {
		t.Fatalf("failed batch accounted work: %+v", delta)
	}
}

func TestPatchBatchDeduplicatesIDs(t *testing.T) {
	_, rt := newProc(t, 0, 2)
	id, _ := PackID(0, 1)
	delta, err := rt.PatchBatch([]int32{id, id, id}, true)
	if err != nil {
		t.Fatal(err)
	}
	if delta.BatchFuncs != 1 || delta.PatchedSleds != 2 {
		t.Fatalf("duplicate IDs not deduplicated: %+v", delta)
	}
}

// TestPatchBatchAnyOrder: a list in any order, with repeats, across two
// objects does the work of the sorted duplicate-free list DynCaPI sends, and
// is left as the caller passed it.
func TestPatchBatchAnyOrder(t *testing.T) {
	const n = 64
	want := func() Stats {
		p, rt := newProc(t, 1, n)
		libID, _ := rt.ObjectID(p.Object("lib0.so"))
		d, err := rt.PatchBatch(append(batchIDs(t, 0, n), batchIDs(t, libID, n)...), true)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	p, rt := newProc(t, 1, n)
	libID, _ := rt.ObjectID(p.Object("lib0.so"))
	ids := append(batchIDs(t, libID, n), batchIDs(t, 0, n)...)
	ids = append(ids, ids[:n/2]...)
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	passed := append([]int32(nil), ids...)
	got, err := rt.PatchBatch(ids, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("shuffled batch did %+v, sorted batch %+v", got, want)
	}
	if !reflect.DeepEqual(ids, passed) {
		t.Fatal("PatchBatch reordered the caller's slice")
	}
	if numPatched(p.Executable()) != 2*n || numPatched(p.Object("lib0.so")) != 2*n {
		t.Fatalf("patched %d/%d sleds, want %d each", numPatched(p.Executable()), numPatched(p.Object("lib0.so")), 2*n)
	}
}

func TestEntryTypeString(t *testing.T) {
	if Entry.String() != "entry" || Exit.String() != "exit" {
		t.Fatal("EntryType strings wrong")
	}
}

// numPatched counts lo's patched sleds.
func numPatched(lo *obj.LoadedObject) int {
	n := 0
	for i := range lo.Image.Sleds {
		if lo.SledPatched(i) {
			n++
		}
	}
	return n
}
