package scorep

import (
	"capi/internal/obj"
)

// Resolver maps instruction addresses to function names for the generic
// -finstrument-functions interface. Score-P builds it by examining the
// *executable* binary only — "a major limitation of this method is that
// Score-P is unable to resolve addresses from shared objects" (§V-C1).
// DynCaPI repairs that with symbol injection: it determines each DSO's
// load address from the process memory map, reads the DSO's symbols with
// nm, translates them, and injects the result (Inject).
type Resolver struct {
	byAddr map[uint64]string
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{byAddr: map[uint64]string{}}
}

// NewResolverFromExecutable builds the resolver Score-P builds on its own:
// function entry addresses of the main executable only.
func NewResolverFromExecutable(p *obj.Process) *Resolver {
	r := NewResolver()
	exe := p.Executable()
	for _, s := range exe.Image.Symbols {
		if s.Kind == obj.SymFunc {
			r.byAddr[exe.Base+s.Value] = s.Name
		}
	}
	return r
}

// Inject adds (or overrides) one address→name mapping — the symbol
// injection path.
func (r *Resolver) Inject(addr uint64, name string) { r.byAddr[addr] = name }

// Resolve maps a function entry address to its name.
func (r *Resolver) Resolve(addr uint64) (string, bool) {
	name, ok := r.byAddr[addr]
	return name, ok
}

// Len returns the number of resolvable addresses.
func (r *Resolver) Len() int { return len(r.byAddr) }
