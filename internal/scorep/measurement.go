// Package scorep reimplements the slice of Score-P the paper's system
// interacts with (§III-B, §V-C1): a call-path profiling runtime with
// per-rank call trees, region handles, runtime filtering, an
// -finstrument-functions-style address interface whose resolution needs the
// executable's symbol table (and symbol *injection* for DSO addresses), a
// scorep-score-like filter generator, and profile export usable for
// MetaCG's profile validation.
package scorep

import (
	"fmt"
	"sync"

	"capi/internal/vtime"
)

// ThreadCtx is the minimal execution context the measurement needs. It is
// structurally identical to xray.ThreadCtx so the same rank objects satisfy
// both without coupling the packages.
type ThreadCtx interface {
	RankID() int
	Clock() *vtime.Clock
}

// Virtual-time costs of the measurement runtime, calibrated for Table II's
// shape: a Score-P enter/exit pair costs ≈2× a TALP start/stop pair, which is
// what makes Score-P the slower backend under full instrumentation, and the
// symbol-map construction makes its T_init larger. Costs are inflated by the
// simulator's call-compression factor (one simulated call stands in for
// roughly a thousand real invocations, see workload.scaleWork), which keeps
// Table II's ratios while executing far fewer simulated calls than the real
// applications perform.
const (
	// enterCost/exitCost are charged per recorded event: timestamping,
	// call-tree descent and metric accumulation. Score-P's per-event cost
	// is noticeably higher than TALP's region lookup — the reason its
	// full-instrumentation overhead exceeds TALP's in Table II.
	enterCost = 372 * vtime.Microsecond
	exitCost  = 372 * vtime.Microsecond
	// resolveCost is the address-to-region lookup of the generic
	// -finstrument-functions interface, charged per event.
	resolveCost = 100 * vtime.Microsecond
	// filterCheckCost is charged per event when runtime filtering is
	// active — "the overhead of invoking the probe and cross-checking the
	// filter list is retained" (§II-B).
	filterCheckCost = 60 * vtime.Microsecond
	// treePressureCost is charged per event per call-tree node of the
	// rank's profile: as the calling-context tree grows (full
	// instrumentation of a large application), every event pays more for
	// child lookup, metric storage and cache pressure. This is the term
	// that makes Score-P's *full* overhead exceed TALP's while its
	// filtered ICs stay cheaper (Table II's crossover).
	treePressureCost = 2100 * vtime.Nanosecond
	// initBase and initPerSymbol model measurement initialization: the
	// runtime builds a map of all function names and addresses (§V-C1).
	initBase      = 1850 * vtime.Millisecond
	initPerSymbol = 7 * vtime.Microsecond
)

// Options configures a measurement.
type Options struct {
	Ranks int
	// RuntimeFilter keeps probes active but discards events for excluded
	// regions after a (charged) filter check.
	RuntimeFilter *Filter
	// TraceCapacity, when positive, keeps a bounded in-memory event trace
	// per rank (Score-P's tracing mode, bounded like its trace buffers).
	TraceCapacity int
}

// TraceEvent is one entry of the bounded event trace.
type TraceEvent struct {
	Time   int64
	Region string
	Enter  bool
}

// cnode is a call-tree node of one rank's profile.
type cnode struct {
	region    int
	parent    int
	children  map[int]int // region -> node index
	visits    int64
	inclusive int64
	enterTime int64 // valid while on stack
}

type rankState struct {
	// mu guards all fields. The owning rank's goroutine is the only event
	// writer, so the lock is uncontended on the hot path; it exists so
	// CloseDangling (synthetic exits delivered from a concurrent
	// reconfiguration) and post-run readers are race-free.
	mu sync.Mutex

	nodes    []cnode
	stack    []int
	rootKids map[int]int
	edges    map[[2]int]struct{}

	// lastNs is the rank clock value after its most recent recorded event —
	// the timestamp synthetic exits close dangling regions at (the rank's
	// own clock cannot be read from another goroutine).
	lastNs int64

	unknownEvents  int64
	filteredEvents int64
	trace          []TraceEvent
	traceDropped   int64
}

// Measurement is one Score-P measurement run.
type Measurement struct {
	opts Options

	mu        sync.RWMutex
	regionIdx map[string]int
	regions   []string

	ranks []*rankState

	unknownRegion int
}

// New creates a measurement for the given number of ranks.
func New(opts Options) (*Measurement, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("scorep: ranks %d < 1", opts.Ranks)
	}
	m := &Measurement{
		opts:      opts,
		regionIdx: map[string]int{},
	}
	for i := 0; i < opts.Ranks; i++ {
		m.ranks = append(m.ranks, &rankState{
			rootKids: map[int]int{},
			edges:    map[[2]int]struct{}{},
		})
	}
	m.unknownRegion = m.RegionHandle("UNKNOWN")
	return m, nil
}

// InitCost returns the virtual init cost for a symbol map of the given
// size; callers (DynCaPI) charge it to the process start-up time.
func (m *Measurement) InitCost(symbols int) int64 {
	return initBase + int64(symbols)*initPerSymbol
}

// RegionHandle registers (or finds) a region by name and returns its
// handle. Handles are process-global and stable.
func (m *Measurement) RegionHandle(name string) int {
	m.mu.RLock()
	id, ok := m.regionIdx[name]
	m.mu.RUnlock()
	if ok {
		return id
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.regionIdx[name]; ok {
		return id
	}
	id = len(m.regions)
	m.regions = append(m.regions, name)
	m.regionIdx[name] = id
	return id
}

// LookupRegion returns the handle of an already registered region, without
// registering it.
func (m *Measurement) LookupRegion(name string) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.regionIdx[name]
	return id, ok
}

// RegionName returns the name of a region handle.
func (m *Measurement) RegionName(id int) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id < 0 || id >= len(m.regions) {
		return fmt.Sprintf("region#%d", id)
	}
	return m.regions[id]
}

func (m *Measurement) rank(tc ThreadCtx) *rankState { return m.ranks[tc.RankID()] }

// filtered applies the runtime filter, charging the check cost.
func (m *Measurement) filtered(tc ThreadCtx, name string) bool {
	if m.opts.RuntimeFilter == nil {
		return false
	}
	tc.Clock().Advance(filterCheckCost)
	if m.opts.RuntimeFilter.Excluded(name) {
		rs := m.rank(tc)
		rs.mu.Lock()
		rs.filteredEvents++
		rs.mu.Unlock()
		return true
	}
	return false
}

// pressure returns the call-tree-pressure cost of one event on this rank.
func (m *Measurement) pressure(rs *rankState) int64 {
	return treePressureCost * int64(len(rs.nodes))
}

// EnterID records a region entry by handle.
func (m *Measurement) EnterID(tc ThreadCtx, region int) {
	c := tc.Clock()
	rs := m.rank(tc)
	rs.mu.Lock()
	c.Advance(enterCost + m.pressure(rs))
	m.push(rs, region, c.Now())
	if rs.trace != nil || m.opts.TraceCapacity > 0 {
		m.traceEvent(rs, c.Now(), region, true)
	}
	rs.lastNs = c.Now()
	rs.mu.Unlock()
}

// ExitID records a region exit by handle. The exit timestamp is taken
// before the probe's own cost is charged, so measurement overhead does not
// inflate the region's time. Mismatched or spurious exits pop the current
// call-path node (Score-P behaviour: trust the instrumentation).
func (m *Measurement) ExitID(tc ThreadCtx, region int) {
	c := tc.Clock()
	rs := m.rank(tc)
	rs.mu.Lock()
	m.pop(rs, region, c.Now())
	c.Advance(exitCost + m.pressure(rs))
	if rs.trace != nil || m.opts.TraceCapacity > 0 {
		m.traceEvent(rs, c.Now(), region, false)
	}
	rs.lastNs = c.Now()
	rs.mu.Unlock()
}

// OpenRegions returns the number of frames currently open on a rank's
// simulated call stack.
func (m *Measurement) OpenRegions(rank int) int {
	rs := m.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.stack)
}

// Enter records a region entry by name, applying the runtime filter.
func (m *Measurement) Enter(tc ThreadCtx, name string) {
	if m.filtered(tc, name) {
		return
	}
	m.EnterID(tc, m.RegionHandle(name))
}

// Exit records a region exit by name, applying the runtime filter.
func (m *Measurement) Exit(tc ThreadCtx, name string) {
	if m.filtered(tc, name) {
		return
	}
	m.ExitID(tc, m.RegionHandle(name))
}

// CygEnter is the -finstrument-functions entry hook: it receives only the
// function address and resolves it through the resolver. Unresolvable
// addresses (DSO functions without symbol injection) land in the UNKNOWN
// region (§V-C1).
func (m *Measurement) CygEnter(tc ThreadCtx, r *Resolver, addr uint64) {
	tc.Clock().Advance(resolveCost)
	name, ok := r.Resolve(addr)
	if !ok {
		m.countUnknown(tc)
		m.EnterID(tc, m.unknownRegion)
		return
	}
	m.Enter(tc, name)
}

// CygExit is the -finstrument-functions exit hook.
func (m *Measurement) CygExit(tc ThreadCtx, r *Resolver, addr uint64) {
	tc.Clock().Advance(resolveCost)
	name, ok := r.Resolve(addr)
	if !ok {
		m.countUnknown(tc)
		m.ExitID(tc, m.unknownRegion)
		return
	}
	m.Exit(tc, name)
}

func (m *Measurement) countUnknown(tc ThreadCtx) {
	rs := m.rank(tc)
	rs.mu.Lock()
	rs.unknownEvents++
	rs.mu.Unlock()
}

func (m *Measurement) push(rs *rankState, region int, now int64) {
	var parent, parentRegion int
	kids := rs.rootKids
	parent = -1
	parentRegion = -1
	if len(rs.stack) > 0 {
		parent = rs.stack[len(rs.stack)-1]
		kids = rs.nodes[parent].children
		parentRegion = rs.nodes[parent].region
	}
	idx, ok := kids[region]
	if !ok {
		idx = len(rs.nodes)
		rs.nodes = append(rs.nodes, cnode{
			region:   region,
			parent:   parent,
			children: map[int]int{},
		})
		kids[region] = idx
	}
	n := &rs.nodes[idx]
	n.visits++
	n.enterTime = now
	rs.stack = append(rs.stack, idx)
	if parentRegion >= 0 {
		rs.edges[[2]int{parentRegion, region}] = struct{}{}
	}
}

// pop closes the exiting region's frame. The top of the stack matches on
// every well-formed stream; a mismatch means the frame was already closed
// by a synthetic exit racing this in-flight real exit (live re-selection),
// so the matching deeper frame — if any survives — is spliced out instead
// of corrupting the top of the stack, and an exit whose region is not open
// at all is ignored as spurious.
func (m *Measurement) pop(rs *rankState, region int, now int64) {
	if len(rs.stack) == 0 {
		return // spurious exit
	}
	idx := rs.stack[len(rs.stack)-1]
	if rs.nodes[idx].region != region {
		for i := len(rs.stack) - 2; i >= 0; i-- {
			if fi := rs.stack[i]; rs.nodes[fi].region == region {
				n := &rs.nodes[fi]
				n.inclusive += now - n.enterTime
				rs.stack = append(rs.stack[:i], rs.stack[i+1:]...)
				return
			}
		}
		return // already synthetically closed
	}
	rs.stack = rs.stack[:len(rs.stack)-1]
	n := &rs.nodes[idx]
	n.inclusive += now - n.enterTime
}

func (m *Measurement) traceEvent(rs *rankState, now int64, region int, enter bool) {
	if m.opts.TraceCapacity <= 0 {
		return
	}
	if len(rs.trace) >= m.opts.TraceCapacity {
		rs.traceDropped++
		return
	}
	rs.trace = append(rs.trace, TraceEvent{Time: now, Region: m.RegionName(region), Enter: enter})
}

// Trace returns the recorded event trace of one rank and the number of
// dropped events.
func (m *Measurement) Trace(rank int) ([]TraceEvent, int64) {
	rs := m.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]TraceEvent(nil), rs.trace...), rs.traceDropped
}

// CloseDangling delivers synthetic exits for every open call-stack frame of
// the given region, on every rank: the frame is spliced out of the
// simulated stack and its inclusive time is closed at the rank's last
// recorded event timestamp. Frames nested above the spliced one stay on the
// stack, so later real exits remain balanced. It returns the number of
// frames closed.
//
// It is safe to call while other ranks record events (per-rank locking);
// the caller must guarantee the region produces no further events — DynCaPI
// calls it under the reconfigure lock after a function is deselected.
func (m *Measurement) CloseDangling(region int) int {
	closed := 0
	for _, rs := range m.ranks {
		rs.mu.Lock()
		kept := rs.stack[:0]
		for _, idx := range rs.stack {
			n := &rs.nodes[idx]
			if n.region == region {
				n.inclusive += rs.lastNs - n.enterTime
				closed++
				continue
			}
			kept = append(kept, idx)
		}
		rs.stack = kept
		rs.mu.Unlock()
	}
	return closed
}
