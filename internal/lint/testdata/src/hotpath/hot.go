// Package fixture mirrors the dispatch-path shape of the real runtime: a
// handler registry with a SetHandler choke point, an annotated dispatch
// method, transitive callees, a reviewed cold path, and the escape
// hatches. Every // want line is a seeded violation the hotpath analyzer
// must catch; lines without one must stay silent.
package fixture

import (
	"sync"
	"sync/atomic"
)

// EntryType mirrors xray.EntryType.
type EntryType uint8

// XRay mirrors the real handler registry the analyzer polices.
type XRay struct {
	handler func(id int32, kind EntryType)
}

// SetHandler is the registration choke point.
func (x *XRay) SetHandler(h func(id int32, kind EntryType)) { x.handler = h }

// Runtime mirrors the dispatch owner.
type Runtime struct {
	xr     *XRay
	events int64
	mu     sync.Mutex
	starts []int64
	seen   map[int32]bool
}

// install registers the annotated dispatch method: the compliant shape.
func (rt *Runtime) install() {
	rt.xr.SetHandler(rt.dispatch)
}

// installLiteral registers a closure: always an error, a literal cannot
// carry the annotation.
func (rt *Runtime) installLiteral() {
	rt.xr.SetHandler(func(id int32, kind EntryType) {}) // want "handler registered with SetHandler is a function literal"
}

// installUnannotated mirrors deleting //capi:hotpath from the dispatch
// method: the registration itself is flagged.
func (rt *Runtime) installUnannotated() {
	rt.xr.SetHandler(rt.rawDispatch) // want "handler Runtime.rawDispatch registered with SetHandler is not annotated //capi:hotpath"
}

// rawDispatch is dispatch with its annotation deleted.
func (rt *Runtime) rawDispatch(id int32, kind EntryType) {}

// dispatch is the per-event hot path.
//
//capi:hotpath
func (rt *Runtime) dispatch(id int32, kind EntryType) {
	atomic.AddInt64(&rt.events, 1)
	buf := make([]int64, 4) // want "hot path \\(//capi:hotpath Runtime.dispatch\\): make allocates"
	_ = buf
	rt.record(id)
	rt.overflow(id)
}

// record is reached from dispatch without its own annotation: the
// traversal must follow it and attribute findings to the root.
func (rt *Runtime) record(id int32) {
	rt.mu.Lock() // want "hot path \\(Runtime.record, reached from //capi:hotpath Runtime.dispatch\\): call to sync.Lock may allocate, lock, or block"
	defer rt.mu.Unlock()
	rt.seen[id] = true // want "map write may rehash and allocate"
}

// overflow is the reviewed out-of-line slow path: //capi:coldpath stops
// the traversal, so its allocations stay legal.
//
//capi:coldpath
func (rt *Runtime) overflow(id int32) {
	rt.starts = append(rt.starts, int64(id))
	rt.seen = make(map[int32]bool)
}

// admitTimed carries the sampler's amortized-append hatch: the waiver
// silences exactly that line.
//
//capi:hotpath
func (rt *Runtime) admitTimed(now int64) {
	//capi:hotpath-ok amortized: grows to the max nesting depth once, then never again
	rt.starts = append(rt.starts, now)
	atomic.AddInt64(&rt.events, 1)
}

// count is a fully compliant hot function: atomics, slice indexing and
// non-interface returns are all free.
//
//capi:hotpath
func (rt *Runtime) count(id int32) bool {
	atomic.AddInt64(&rt.events, 1)
	return uint(id) < uint(len(rt.starts)) && rt.starts[id] != 0
}

// lookup is the dispatch path before the dense tables: every way of
// reading a map hashes, in the root and in what it reaches; a store is
// reported once, as a write; the waiver and the cold path still apply.
//
//capi:hotpath
func (rt *Runtime) lookup(id int32) bool {
	if rt.seen[id] { // want "hot path \\(//capi:hotpath Runtime.lookup\\): map read hashes the key"
		return true
	}
	_, ok := rt.seen[id] // want "map read hashes the key"
	for range rt.seen {  // want "range over map walks the hash table"
	}
	rt.seen[id] = ok // want "map write may rehash and allocate"
	//capi:hotpath-ok reviewed: a two-entry map on a path taken once per phase
	ok = rt.seen[id+1]
	rt.overflow(id)
	return ok || rt.classify(id)
}

// classify is reached from lookup: the rule follows callees.
func (rt *Runtime) classify(id int32) bool {
	return rt.seen[id] // want "hot path \\(Runtime.classify, reached from //capi:hotpath Runtime.lookup\\): map read hashes the key"
}

var sink any

// publish exercises the boxing, channel, closure, and string rules.
//
//capi:hotpath
func publish(ch chan int64, id int32, name string) {
	ch <- int64(id)     // want "channel send may block"
	label := name + "!" // want "string concatenation allocates"
	_ = label
	f := func() {} // want "function literal allocates a closure"
	f()
	sink = id // want "assignment boxes a concrete value into an interface"
}
