// Package obj models linked object files (the executable and its DSOs) and
// running processes: symbol tables with ELF-style visibility, XRay
// instrumentation maps (sled tables, with each function ID's sleds found
// through one flat index per image), a loader that maps the executable and
// its DSOs once, at process start, page-protected text mappings and address
// resolution. It is the substrate on which internal/xray performs runtime
// patching and from which DynCaPI maps function IDs to names (§V-B, §V-C of
// the paper): each image indexes, once, the symbol at every function ID's
// entry sled (FuncSymbol), and every process loaded from it reads that
// index. Every instrumented process keeps its images for the whole run, so
// their indexes are dense slices, not per-ID maps.
package obj

import (
	"cmp"
	"fmt"
	"slices"
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

	sledAt  []int32 // function ID f's sleds are sledIdx[sledAt[f]:sledAt[f+1]]
	sledIdx []int32 // sled indexes grouped by function ID, in sled order
	funcSym []int32 // function ID f's entry symbol is Symbols[funcSym[f]]; -1 for none
}

// Finalize builds the image's lookup indexes and validates internal
// consistency. It must be called once after construction.
func (im *Image) Finalize() error {
	// Names are looked up through the program, not the image; the set only
	// keeps them unique.
	names := make(map[string]struct{}, len(im.Symbols))
	for i, s := range im.Symbols {
		if s.Name == "" {
			return fmt.Errorf("obj %s: symbol %d has empty name", im.Name, i)
		}
		if _, dup := names[s.Name]; dup {
			return fmt.Errorf("obj %s: duplicate symbol %q", im.Name, s.Name)
		}
		names[s.Name] = struct{}{}
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
	// A function ID's entry symbol is the function symbol starting at its
	// entry sled, binary-searched in address order. The sort is stable, so
	// of two symbols at one address the one declared last is found.
	var sorted []int32
	for i, s := range im.Symbols {
		if s.Kind == SymFunc {
			sorted = append(sorted, int32(i))
		}
	}
	slices.SortStableFunc(sorted, func(a, b int32) int { return cmp.Compare(im.Symbols[a].Value, im.Symbols[b].Value) })
	im.funcSym = make([]int32, n)
	for f := range im.funcSym {
		im.funcSym[f] = -1
		off, ok := im.FuncEntryOffset(uint32(f))
		at := sort.Search(len(sorted), func(k int) bool { return im.Symbols[sorted[k]].Value > off })
		if ok && at > 0 && im.Symbols[sorted[at-1]].Value == off {
			im.funcSym[f] = sorted[at-1]
		}
	}
	return nil
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

// FuncSymbol returns the function symbol that starts at the given function
// ID's entry sled, hidden or not; none for an ID without an entry sled, one
// whose entry no symbol starts at, or one the image does not use. DynCaPI
// decides itself which of them a DSO's dynamic table would show.
func (im *Image) FuncSymbol(funcID uint32) (Symbol, bool) {
	if funcID >= uint32(len(im.funcSym)) || im.funcSym[funcID] < 0 {
		return Symbol{}, false
	}
	return im.Symbols[im.funcSym[funcID]], true
}
