// Package fixture exercises the atomicfield analyzer: every use of a
// sync/atomic package function is flagged, whether called or taken as a
// value; typed atomics and plain-only fields pass clean.
package fixture

import "sync/atomic"

// Counter uses legacy package-function atomics on n.
type Counter struct {
	n    int64
	cold int64
}

// Incr is a legacy atomic writer.
func (c *Counter) Incr() {
	atomic.AddInt64(&c.n, 1) // want "sync/atomic.AddInt64: use a typed atomic \\(atomic.Int64, atomic.Pointer\\[T\\], …\\), which cannot be accessed plainly"
}

// Load is a legacy atomic reader.
func (c *Counter) Load() int64 {
	return atomic.LoadInt64(&c.n) // want "sync/atomic.LoadInt64: use a typed atomic"
}

// store takes a package function as a value: flagged the same.
var store = atomic.StoreInt64 // want "sync/atomic.StoreInt64: use a typed atomic"

// Cold is plain-only: out of the analyzer's scope.
func (c *Counter) Cold() int64 { return c.cold }

// Typed uses typed atomics: mixed access is unrepresentable.
type Typed struct {
	v atomic.Int64
	p atomic.Pointer[Counter]
}

// Bump goes through the typed API.
func (t *Typed) Bump() int64 {
	t.v.Add(1)
	t.p.Store(&Counter{})
	return t.v.Load()
}
