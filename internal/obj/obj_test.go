package obj

import (
	"strings"
	"testing"

	"capi/internal/mem"
)

// testImage builds a small patchable image with two functions:
//
//	f0 at 0x000 (size 0x40), sleds 0 (entry) and 1 (exit)
//	f1 at 0x40 (size 0x40), sleds 2 (entry) and 3 (exit), hidden
func testImage(name string, exe bool) *Image {
	im := &Image{
		Name:      name,
		Exe:       exe,
		Patchable: true,
		TextSize:  0x2000,
		Symbols: []Symbol{
			{Name: "f0", Value: 0x00, Size: 0x40, Kind: SymFunc},
			{Name: "f1", Value: 0x40, Size: 0x40, Kind: SymFunc, Hidden: true},
			{Name: "data0", Value: 0x1000, Size: 8, Kind: SymObject},
		},
		Sleds: []Sled{
			{Offset: 0x00, FuncID: 0, Kind: SledEntry},
			{Offset: 0x30, FuncID: 0, Kind: SledExit},
			{Offset: 0x40, FuncID: 1, Kind: SledEntry},
			{Offset: 0x70, FuncID: 1, Kind: SledExit},
		},
		NumFuncIDs: 2,
	}
	if err := im.Finalize(); err != nil {
		panic(err)
	}
	return im
}

func TestImageFinalizeErrors(t *testing.T) {
	bad := &Image{Name: "b", TextSize: 0x10, Symbols: []Symbol{{Name: "f", Value: 0, Size: 0x20, Kind: SymFunc}}}
	if err := bad.Finalize(); err == nil {
		t.Fatal("symbol beyond text must fail")
	}
	bad2 := &Image{Name: "b", TextSize: 0x100, Sleds: []Sled{{Offset: 0x0, FuncID: 5}}, NumFuncIDs: 1}
	if err := bad2.Finalize(); err == nil {
		t.Fatal("sled with out-of-range func id must fail")
	}
	bad3 := &Image{Name: "b", TextSize: 0x100, Symbols: []Symbol{{Name: "f"}, {Name: "f"}}}
	if err := bad3.Finalize(); err == nil {
		t.Fatal("duplicate symbol must fail")
	}
	bad4 := &Image{Name: "b", TextSize: 0x100, Symbols: []Symbol{{Name: ""}}}
	if err := bad4.Finalize(); err == nil {
		t.Fatal("empty symbol name must fail")
	}
	bad5 := &Image{Name: "b", TextSize: 8, Sleds: []Sled{{Offset: 4, FuncID: 0}}, NumFuncIDs: 1}
	if err := bad5.Finalize(); err == nil {
		t.Fatal("sled beyond text must fail")
	}
}

func TestImageLookups(t *testing.T) {
	im := testImage("app", true)
	if got := im.FuncSleds(0); len(got) != 2 {
		t.Fatalf("FuncSleds(0) = %v", got)
	}
	off, ok := im.FuncEntryOffset(1)
	if !ok || off != 0x40 {
		t.Fatalf("FuncEntryOffset(1) = %#x, %v", off, ok)
	}
	if _, ok := im.FuncEntryOffset(99); ok {
		t.Fatal("entry offset for unknown func id")
	}
}

// TestFuncSymbol: each function ID's entry sled names the symbol that starts
// there, hidden or not; an entry no symbol starts at, an ID with no entry
// sled and an ID the image does not use name none.
func TestFuncSymbol(t *testing.T) {
	im := testImage("lib.so", false)
	for id, want := range []struct {
		name   string
		hidden bool
	}{{"f0", false}, {"f1", true}} {
		s, ok := im.FuncSymbol(uint32(id))
		if !ok || s.Name != want.name || s.Hidden != want.hidden || s.Kind != SymFunc {
			t.Fatalf("FuncSymbol(%d) = %+v, %v, want %s (hidden %v)", id, s, ok, want.name, want.hidden)
		}
	}
	if s, ok := im.FuncSymbol(99); ok {
		t.Fatalf("FuncSymbol(99) = %+v for an ID the image does not use", s)
	}

	// ID 2's entry lies inside f1 but no symbol starts there; ID 3 has an
	// exit sled only.
	im.Sleds = append(im.Sleds,
		Sled{Offset: 0x50, FuncID: 2, Kind: SledEntry},
		Sled{Offset: 0x60, FuncID: 3, Kind: SledExit})
	im.NumFuncIDs = 4
	if err := im.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{2, 3} {
		if s, ok := im.FuncSymbol(id); ok {
			t.Fatalf("FuncSymbol(%d) = %+v, want none", id, s)
		}
	}
	if s, ok := im.FuncSymbol(1); !ok || s.Name != "f1" {
		t.Fatalf("FuncSymbol(1) = %+v, %v after re-finalizing, want f1", s, ok)
	}
}

func TestProcessLoad(t *testing.T) {
	exe, lib, sys, lib2 := testImage("app", true), testImage("lib.so", false), testImage("libc.so", false), testImage("lib2.so", false)
	sys.Patchable = false
	p, err := NewProcess(exe, lib, sys, lib2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Executable().Image != exe || p.Executable().Base != exeBase {
		t.Fatalf("executable = %q at %#x", p.Executable().Image.Name, p.Executable().Base)
	}
	// DSOs, patchable or not, are mapped in order at one stride apart.
	for i, name := range []string{"lib.so", "libc.so", "lib2.so"} {
		lo := p.Object(name)
		if lo == nil {
			t.Fatalf("Object(%q) = nil", name)
		}
		if want := dsoBase + uint64(i)*dsoStride; lo.Base != want {
			t.Fatalf("%s base = %#x, want %#x", name, lo.Base, want)
		}
		if p.Objects()[i+1] != lo {
			t.Fatalf("Objects()[%d] is not %s", i+1, name)
		}
	}
	if len(p.Objects()) != 4 {
		t.Fatalf("Objects = %d", len(p.Objects()))
	}
	if p.Object("ghost.so") != nil {
		t.Fatal("unknown object found")
	}
}

func TestProcessLoadErrors(t *testing.T) {
	exe := testImage("app", true)
	if _, err := NewProcess(testImage("lib.so", false)); err == nil {
		t.Fatal("NewProcess with DSO should fail")
	}
	if _, err := NewProcess(exe, testImage("app2", true)); err == nil || !strings.Contains(err.Error(), "executable image") {
		t.Fatalf("executable image as a DSO: err = %v", err)
	}
	if _, err := NewProcess(exe, testImage("lib.so", false), testImage("lib.so", false)); err == nil || !strings.Contains(err.Error(), "already loaded") {
		t.Fatalf("two DSOs with one name: err = %v", err)
	}
}

func TestSledPatchingRequiresWritablePages(t *testing.T) {
	p, _ := NewProcess(testImage("app", true))
	exe := p.Executable()
	// Text is r-x: writing must fault.
	if err := exe.WriteSled(0, true); err == nil || !strings.Contains(err.Error(), "non-writable") {
		t.Fatalf("err = %v", err)
	}
	if exe.SledPatched(0) {
		t.Fatal("sled must remain unpatched after failed write")
	}
	// mprotect, then patch.
	if _, err := p.AS.Mprotect(exe.SledAddr(0), SledBytes, mem.ProtRead|mem.ProtWrite|mem.ProtExec); err != nil {
		t.Fatal(err)
	}
	if err := exe.WriteSled(0, true); err != nil {
		t.Fatal(err)
	}
	if !exe.SledPatched(0) || numPatched(exe) != 1 {
		t.Fatal("sled should be patched")
	}
	// Restore protection; unpatching now faults again.
	if _, err := p.AS.Mprotect(exe.SledAddr(0), SledBytes, mem.ProtRead|mem.ProtExec); err != nil {
		t.Fatal(err)
	}
	if err := exe.WriteSled(0, false); err == nil {
		t.Fatal("write after restore should fault")
	}
	if err := exe.WriteSled(99, true); err == nil {
		t.Fatal("out-of-range sled index should fail")
	}
}

// numPatched counts lo's patched sleds.
func numPatched(lo *LoadedObject) int {
	n := 0
	for i := range lo.Image.Sleds {
		if lo.SledPatched(i) {
			n++
		}
	}
	return n
}
