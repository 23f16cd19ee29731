package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		0:                               "---",
		ProtRead:                        "r--",
		ProtRead | ProtWrite:            "rw-",
		ProtRead | ProtExec:             "r-x",
		ProtRead | ProtWrite | ProtExec: "rwx",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Prot(%d) = %q, want %q", p, got, want)
		}
	}
}

func TestMap(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x400000, 2*PageSize, ProtRead|ProtExec); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x400000, 1, ProtRead); err == nil {
		t.Fatal("double map should fail")
	}
	if p, ok := as.ProtAt(0x400000 + PageSize); !ok || p != ProtRead|ProtExec {
		t.Fatalf("ProtAt = %v, %v", p, ok)
	}
}

func TestMprotectAndCheckWrite(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0, 3*PageSize, ProtRead|ProtExec); err != nil {
		t.Fatal(err)
	}
	if err := as.CheckWrite(100, 8); err == nil {
		t.Fatal("write to r-x page should fault")
	}
	n, err := as.Mprotect(0, 2*PageSize, ProtRead|ProtWrite|ProtExec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("pages affected = %d, want 2", n)
	}
	if err := as.CheckWrite(100, 8); err != nil {
		t.Fatalf("write after mprotect: %v", err)
	}
	// Third page untouched.
	if err := as.CheckWrite(2*PageSize+10, 4); err == nil {
		t.Fatal("third page should remain non-writable")
	}
	// Write spanning a writable and non-writable page faults.
	if err := as.CheckWrite(2*PageSize-4, 8); err == nil {
		t.Fatal("spanning write should fault")
	}
	if as.MprotectCalls() != 1 {
		t.Fatalf("MprotectCalls = %d", as.MprotectCalls())
	}
}

func TestMprotectUnmapped(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Mprotect(0, PageSize, ProtRead); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("err = %v", err)
	}
	if err := as.CheckWrite(0, 1); err == nil {
		t.Fatal("write to unmapped should fail")
	}
}

func TestZeroSizeUsesOnePage(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0, 0, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.ProtAt(0); !ok {
		t.Fatal("zero-size map should map one page")
	}
	if _, ok := as.ProtAt(PageSize); ok {
		t.Fatal("zero-size map must not spill to next page")
	}
}

// Property: after Map with prot P, every address in range reads back P, and
// CheckWrite succeeds iff P includes ProtWrite.
func TestMapProtProperty(t *testing.T) {
	f := func(pageIdx uint16, npages uint8, wantWrite bool) bool {
		as := NewAddressSpace()
		addr := uint64(pageIdx) * PageSize
		size := (uint64(npages%8) + 1) * PageSize
		prot := ProtRead
		if wantWrite {
			prot |= ProtWrite
		}
		if err := as.Map(addr, size, prot); err != nil {
			return false
		}
		err := as.CheckWrite(addr, size)
		if wantWrite {
			return err == nil
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
