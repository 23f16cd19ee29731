// Package obj models linked object files (the executable and its DSOs) and
// running processes: symbol tables with ELF-style visibility, XRay
// instrumentation maps (sled tables, with each function ID's sleds found
// through one flat index per image), a loader that maps the executable and
// its DSOs once, at process start, page-protected text mappings and address
// resolution. It is the substrate on which internal/xray performs runtime
// patching and on which DynCaPI performs its nm-based symbol mapping (§V-B,
// §V-C of the paper). Every instrumented process keeps its images for the
// whole run, so their indexes are dense slices, not per-ID maps.
package obj

import (
	"fmt"
	"sort"
)

// SymKind classifies a symbol.
type SymKind int

const (
	// SymFunc is a function (text) symbol.
	SymFunc SymKind = iota
	// SymObject is a data symbol.
	SymObject
)

// Symbol is one symbol-table entry. Value is the offset of the symbol
// within its image; loaded addresses are Base+Value.
type Symbol struct {
	Name   string
	Value  uint64
	Size   uint64
	Kind   SymKind
	Hidden bool // ELF hidden visibility: absent from the dynamic table
}

// SledKind discriminates entry and exit sleds.
type SledKind int

const (
	// SledEntry marks a function entry instrumentation point.
	SledEntry SledKind = iota
	// SledExit marks a function exit instrumentation point.
	SledExit
)

func (k SledKind) String() string {
	if k == SledEntry {
		return "entry"
	}
	return "exit"
}

// SledBytes is the size of one sled (the NOP pad XRay reserves, large
// enough for the jump-to-trampoline sequence).
const SledBytes = 11

// Sled is one entry of the XRay instrumentation map: a patchable location.
type Sled struct {
	Offset uint64 // offset within the image's text
	FuncID uint32 // image-local function ID
	Kind   SledKind
}

// Image is a linked object file as produced by the compiler.
type Image struct {
	Name      string
	Exe       bool // the main executable (as opposed to a DSO)
	Patchable bool // built with XRay instrumentation

	Symbols  []Symbol
	Sleds    []Sled
	TextSize uint64

	// NumFuncIDs is the number of XRay function IDs used by this image
	// (the paper reports 28,687 for the largest OpenFOAM object).
	NumFuncIDs uint32

	symByName map[string]int
	sledAt    []int32 // function ID f's sleds are sledIdx[sledAt[f]:sledAt[f+1]]
	sledIdx   []int32 // sled indexes grouped by function ID, in sled order
	sortedSym []int   // function symbols sorted by Value
}

// Finalize builds the image's lookup indexes and validates internal
// consistency. It must be called once after construction.
func (im *Image) Finalize() error {
	im.symByName = make(map[string]int, len(im.Symbols))
	for i, s := range im.Symbols {
		if s.Name == "" {
			return fmt.Errorf("obj %s: symbol %d has empty name", im.Name, i)
		}
		if _, dup := im.symByName[s.Name]; dup {
			return fmt.Errorf("obj %s: duplicate symbol %q", im.Name, s.Name)
		}
		im.symByName[s.Name] = i
		if s.Value+s.Size > im.TextSize && s.Kind == SymFunc {
			return fmt.Errorf("obj %s: symbol %q beyond text end", im.Name, s.Name)
		}
	}
	// Both sled tables share one allocation. Count each ID's sleds two
	// slots up and sum; filling through the slot one up then moves it from
	// the ID's first entry to the next ID's.
	n := int(im.NumFuncIDs)
	at := make([]int32, n+2+len(im.Sleds))
	at, im.sledIdx = at[:n+2], at[n+2:]
	for i, sl := range im.Sleds {
		if sl.Offset+SledBytes > im.TextSize {
			return fmt.Errorf("obj %s: sled %d beyond text end", im.Name, i)
		}
		if sl.FuncID >= im.NumFuncIDs {
			return fmt.Errorf("obj %s: sled %d references function ID %d >= %d", im.Name, i, sl.FuncID, im.NumFuncIDs)
		}
		at[sl.FuncID+2]++
	}
	for k := 2; k < len(at); k++ {
		at[k] += at[k-1]
	}
	for i, sl := range im.Sleds {
		im.sledIdx[at[sl.FuncID+1]] = int32(i)
		at[sl.FuncID+1]++
	}
	im.sledAt = at[:n+1]
	im.sortedSym = im.sortedSym[:0]
	for i, s := range im.Symbols {
		if s.Kind == SymFunc {
			im.sortedSym = append(im.sortedSym, i)
		}
	}
	sort.Slice(im.sortedSym, func(a, b int) bool {
		return im.Symbols[im.sortedSym[a]].Value < im.Symbols[im.sortedSym[b]].Value
	})
	return nil
}

// Symbol returns the named symbol.
func (im *Image) Symbol(name string) (Symbol, bool) {
	i, ok := im.symByName[name]
	if !ok {
		return Symbol{}, false
	}
	return im.Symbols[i], true
}

// FuncSleds returns the sled indexes belonging to the given function ID, in
// sled order; none for an ID the image does not use. Callers must not modify
// the slice.
func (im *Image) FuncSleds(funcID uint32) []int32 {
	if funcID >= im.NumFuncIDs {
		return nil
	}
	return im.sledIdx[im.sledAt[funcID]:im.sledAt[funcID+1]]
}

// FuncEntryOffset returns the entry-sled offset of the given function ID.
func (im *Image) FuncEntryOffset(funcID uint32) (uint64, bool) {
	for _, si := range im.FuncSleds(funcID) {
		if im.Sleds[si].Kind == SledEntry {
			return im.Sleds[si].Offset, true
		}
	}
	return 0, false
}

// symbolAt resolves an offset to the containing function symbol.
func (im *Image) symbolAt(off uint64) (Symbol, bool) {
	idx := sort.Search(len(im.sortedSym), func(i int) bool {
		return im.Symbols[im.sortedSym[i]].Value > off
	})
	if idx == 0 {
		return Symbol{}, false
	}
	s := im.Symbols[im.sortedSym[idx-1]]
	if off < s.Value+s.Size {
		return s, true
	}
	return Symbol{}, false
}

// NM returns the full symbol table sorted by value, like `nm` on an
// unstripped object file. DynCaPI uses this output to map XRay function IDs
// to names (§VI-B(a)).
func (im *Image) NM() []Symbol {
	out := make([]Symbol, len(im.Symbols))
	copy(out, im.Symbols)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value < out[b].Value
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// DynSyms returns the dynamic symbol table: the non-hidden symbols. Hidden
// symbols are invisible here — the reason DynCaPI cannot resolve 1,444
// OpenFOAM functions in the paper's evaluation.
func (im *Image) DynSyms() []Symbol {
	var out []Symbol
	for _, s := range im.Symbols {
		if !s.Hidden {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value < out[b].Value
		}
		return out[a].Name < out[b].Name
	})
	return out
}
