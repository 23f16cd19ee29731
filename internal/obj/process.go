package obj

import (
	"fmt"
	"sync"
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

// NumPatched returns the number of currently patched sleds.
func (lo *LoadedObject) NumPatched() int {
	n := 0
	for i := range lo.patched {
		if lo.patched[i].Load() {
			n++
		}
	}
	return n
}

// Process is a set of loaded objects sharing an address space.
type Process struct {
	AS *mem.AddressSpace

	mu          sync.RWMutex
	objects     []*LoadedObject
	byName      map[string]*LoadedObject
	loadHooks   []func(*LoadedObject)
	unloadHooks []func(*LoadedObject)
	nextDSO     uint64
}

// NewProcess creates a process with the executable image mapped read-exec.
func NewProcess(exe *Image) (*Process, error) {
	if !exe.Exe {
		return nil, fmt.Errorf("obj: %q is not an executable image", exe.Name)
	}
	p := &Process{
		AS:     mem.NewAddressSpace(),
		byName: map[string]*LoadedObject{},
	}
	if _, err := p.load(exe, exeBase); err != nil {
		return nil, err
	}
	return p, nil
}

// OnLoad registers a hook invoked for every subsequently loaded object
// (and is how the xray-dso runtime registers DSO sled maps).
func (p *Process) OnLoad(h func(*LoadedObject)) {
	p.mu.Lock()
	p.loadHooks = append(p.loadHooks, h)
	p.mu.Unlock()
}

// OnUnload registers a hook invoked before an object is unloaded.
func (p *Process) OnUnload(h func(*LoadedObject)) {
	p.mu.Lock()
	p.unloadHooks = append(p.unloadHooks, h)
	p.mu.Unlock()
}

func (p *Process) load(img *Image, base uint64) (*LoadedObject, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.byName[img.Name]; dup {
		return nil, fmt.Errorf("obj: %q already loaded", img.Name)
	}
	size := img.TextSize
	if size == 0 {
		size = 1
	}
	if err := p.AS.Map(base, size, mem.ProtRead|mem.ProtExec); err != nil {
		return nil, fmt.Errorf("obj: mapping %q: %w", img.Name, err)
	}
	lo := &LoadedObject{Image: img, Base: base, proc: p, patched: make([]atomic.Bool, len(img.Sleds))}
	p.objects = append(p.objects, lo)
	p.byName[img.Name] = lo
	return lo, nil
}

// Load maps a DSO image into the process, assigns it a base address and
// fires the load hooks (dlopen).
func (p *Process) Load(img *Image) (*LoadedObject, error) {
	if img.Exe {
		return nil, fmt.Errorf("obj: cannot dlopen executable image %q", img.Name)
	}
	p.mu.Lock()
	base := dsoBase + p.nextDSO*dsoStride
	p.nextDSO++
	p.mu.Unlock()
	lo, err := p.load(img, base)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	hooks := append([]func(*LoadedObject){}, p.loadHooks...)
	p.mu.RUnlock()
	for _, h := range hooks {
		h(lo)
	}
	return lo, nil
}

// Unload removes a DSO from the process (dlclose), firing unload hooks
// first.
func (p *Process) Unload(name string) error {
	p.mu.Lock()
	lo, ok := p.byName[name]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("obj: %q not loaded", name)
	}
	if lo.Image.Exe {
		p.mu.Unlock()
		return fmt.Errorf("obj: cannot unload the executable")
	}
	hooks := append([]func(*LoadedObject){}, p.unloadHooks...)
	p.mu.Unlock()
	for _, h := range hooks {
		h(lo)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	size := lo.Image.TextSize
	if size == 0 {
		size = 1
	}
	if err := p.AS.Unmap(lo.Base, size); err != nil {
		return err
	}
	delete(p.byName, name)
	for i, o := range p.objects {
		if o == lo {
			p.objects = append(p.objects[:i], p.objects[i+1:]...)
			break
		}
	}
	return nil
}

// Executable returns the main executable object.
func (p *Process) Executable() *LoadedObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.objects[0]
}

// Objects returns the loaded objects, executable first.
func (p *Process) Objects() []*LoadedObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*LoadedObject, len(p.objects))
	copy(out, p.objects)
	return out
}

// Object returns the loaded object with the given image name, or nil.
func (p *Process) Object(name string) *LoadedObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byName[name]
}

// FindObject returns the object whose mapping contains addr, or nil.
func (p *Process) FindObject(addr uint64) *LoadedObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, lo := range p.objects {
		if addr >= lo.Base && addr < lo.Base+lo.Image.TextSize {
			return lo
		}
	}
	return nil
}

// ResolveAddr resolves an absolute address to (object name, symbol).
func (p *Process) ResolveAddr(addr uint64) (objName string, sym Symbol, ok bool) {
	lo := p.FindObject(addr)
	if lo == nil {
		return "", Symbol{}, false
	}
	s, ok := lo.Image.symbolAt(addr - lo.Base)
	return lo.Image.Name, s, ok
}
