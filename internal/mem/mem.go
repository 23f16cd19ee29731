// Package mem models a page-granular virtual address space with protection
// bits and an mprotect operation. XRay's sled patching (§V-A of the paper)
// works by marking the text pages containing sleds writable, rewriting the
// placeholder instructions, and restoring the protection; this package
// provides exactly that substrate. Go cannot rewrite its own text segment,
// so patching targets this modelled address space instead.
package mem

import (
	"fmt"
	"sort"
	"sync"
)

// PageSize is the modelled page size in bytes.
const PageSize = 4096

// Prot is a bitmask of page protection flags.
type Prot uint8

// Protection flag bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// String renders the protection like a /proc/self/maps entry ("r-x").
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AddressSpace tracks the protection of mapped pages. It is safe for
// concurrent use.
type AddressSpace struct {
	mu    sync.RWMutex
	pages map[uint64]Prot // page index -> protection

	mprotectCalls int
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: map[uint64]Prot{}}
}

func pageRange(addr, size uint64) (first, last uint64) {
	if size == 0 {
		size = 1
	}
	return addr / PageSize, (addr + size - 1) / PageSize
}

// Map maps the pages covering [addr, addr+size) with the given protection.
// Mapping an already-mapped page is an error.
func (as *AddressSpace) Map(addr, size uint64, prot Prot) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	first, last := pageRange(addr, size)
	for pg := first; pg <= last; pg++ {
		if _, exists := as.pages[pg]; exists {
			return fmt.Errorf("mem: page %#x already mapped", pg*PageSize)
		}
	}
	for pg := first; pg <= last; pg++ {
		as.pages[pg] = prot
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+size). Unmapping pages that
// are not mapped is an error.
func (as *AddressSpace) Unmap(addr, size uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	first, last := pageRange(addr, size)
	for pg := first; pg <= last; pg++ {
		if _, exists := as.pages[pg]; !exists {
			return fmt.Errorf("mem: unmapping unmapped page %#x", pg*PageSize)
		}
	}
	for pg := first; pg <= last; pg++ {
		delete(as.pages, pg)
	}
	return nil
}

// Mprotect changes the protection of the pages covering [addr, addr+size).
// All pages must be mapped. It returns the number of pages affected.
func (as *AddressSpace) Mprotect(addr, size uint64, prot Prot) (int, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	first, last := pageRange(addr, size)
	for pg := first; pg <= last; pg++ {
		if _, exists := as.pages[pg]; !exists {
			return 0, fmt.Errorf("mem: mprotect on unmapped page %#x", pg*PageSize)
		}
	}
	for pg := first; pg <= last; pg++ {
		as.pages[pg] = prot
	}
	as.mprotectCalls++
	return int(last - first + 1), nil
}

// CheckWrite verifies that every page covering [addr, addr+size) is mapped
// writable; it models the fault a stray text write would take.
func (as *AddressSpace) CheckWrite(addr, size uint64) error {
	as.mu.RLock()
	defer as.mu.RUnlock()
	first, last := pageRange(addr, size)
	for pg := first; pg <= last; pg++ {
		prot, exists := as.pages[pg]
		if !exists {
			return fmt.Errorf("mem: write to unmapped address %#x", addr)
		}
		if prot&ProtWrite == 0 {
			return fmt.Errorf("mem: write to non-writable page %#x (prot %s)", pg*PageSize, prot)
		}
	}
	return nil
}

// ProtAt returns the protection of the page containing addr.
func (as *AddressSpace) ProtAt(addr uint64) (Prot, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	p, ok := as.pages[addr/PageSize]
	return p, ok
}

// MprotectCalls returns the number of Mprotect invocations, used by the
// patch-time cost model.
func (as *AddressSpace) MprotectCalls() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.mprotectCalls
}

// MappedPages returns the sorted page start addresses (for tests/reports).
func (as *AddressSpace) MappedPages() []uint64 {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]uint64, 0, len(as.pages))
	for pg := range as.pages {
		out = append(out, pg*PageSize)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
