package obj

import (
	"fmt"
	"slices"
	"sync/atomic"

	"capi/internal/mem"
)

// Load addresses: the executable gets the traditional small-PIE base, DSOs
// are placed in the mmap region with a fixed stride.
const (
	exeBase   = 0x0000000000400000
	dsoBase   = 0x00007f0000000000
	dsoStride = 0x0000000040000000
)

// LoadedObject is an image mapped into a process.
type LoadedObject struct {
	Image *Image
	Base  uint64

	proc    *Process
	patched []atomic.Bool // per-sled state: false = NOP sled, true = patched
}

// SledAddr returns the absolute address of sled i.
func (lo *LoadedObject) SledAddr(i int) uint64 {
	return lo.Base + lo.Image.Sleds[i].Offset
}

// SledPatched reports whether sled i has been patched. It is safe to call
// concurrently with patching (the execution engine reads it on every call).
func (lo *LoadedObject) SledPatched(i int) bool { return lo.patched[i].Load() }

// WriteSled rewrites sled i (NOP ↔ jump-to-trampoline). The containing page
// must be writable — callers must mprotect first, exactly like the real
// XRay runtime (§V-A).
func (lo *LoadedObject) WriteSled(i int, patched bool) error {
	if i < 0 || i >= len(lo.patched) {
		return fmt.Errorf("obj %s: sled index %d out of range", lo.Image.Name, i)
	}
	addr := lo.SledAddr(i)
	if err := lo.proc.AS.CheckWrite(addr, SledBytes); err != nil {
		return fmt.Errorf("obj %s: patching sled %d: %w", lo.Image.Name, i, err)
	}
	lo.patched[i].Store(patched)
	return nil
}

// Process is a set of loaded objects sharing an address space. It is built
// once, by NewProcess, and its object list never changes afterwards, so it
// is read without a lock. The list is the only object table: Object scans
// it.
type Process struct {
	AS *mem.AddressSpace
	// PackedID maps a function name to the packed XRay ID its build gave
	// it (compiler.Build.PackedID); nil for hand-made images.
	PackedID func(name string) (int32, bool)

	objects []*LoadedObject
}

// NewProcess maps the executable read-exec and then each DSO, in order, at
// its base in the mmap region — the whole image the dynamic loader sets up
// before main runs.
func NewProcess(exe *Image, dsos ...*Image) (*Process, error) {
	if !exe.Exe {
		return nil, fmt.Errorf("obj: %q is not an executable image", exe.Name)
	}
	p := &Process{
		AS:      mem.NewAddressSpace(),
		objects: make([]*LoadedObject, 0, 1+len(dsos)),
	}
	if err := p.load(exe, exeBase); err != nil {
		return nil, err
	}
	for i, img := range dsos {
		if img.Exe {
			return nil, fmt.Errorf("obj: executable image %q passed as a DSO", img.Name)
		}
		if err := p.load(img, dsoBase+uint64(i)*dsoStride); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Process) load(img *Image, base uint64) error {
	if p.Object(img.Name) != nil {
		return fmt.Errorf("obj: %q already loaded", img.Name)
	}
	size := img.TextSize
	if size == 0 {
		size = 1
	}
	if err := p.AS.Map(base, size, mem.ProtRead|mem.ProtExec); err != nil {
		return fmt.Errorf("obj: mapping %q: %w", img.Name, err)
	}
	lo := &LoadedObject{Image: img, Base: base, proc: p, patched: make([]atomic.Bool, len(img.Sleds))}
	p.objects = append(p.objects, lo)
	return nil
}

// Executable returns the main executable object.
func (p *Process) Executable() *LoadedObject { return p.objects[0] }

// Objects returns the loaded objects in load order, executable first.
func (p *Process) Objects() []*LoadedObject { return slices.Clone(p.objects) }

// Object returns the loaded object with the given image name, or nil.
func (p *Process) Object(name string) *LoadedObject {
	for _, lo := range p.objects {
		if lo.Image.Name == name {
			return lo
		}
	}
	return nil
}
