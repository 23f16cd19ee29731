package dyncapi

import (
	"sync"

	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// mpiRanker is satisfied by execution contexts that expose their simulated
// MPI rank (exec.Task does); the TALP backend needs it.
type mpiRanker interface {
	MPIRank() *mpi.Rank
}

// CygBackend is the default GCC-compatible interface: it forwards events to
// __cyg_profile_func_enter/exit-style callbacks carrying only the function
// address (§V-C).
type CygBackend struct {
	// EnterFunc and ExitFunc receive the function address, like
	// __cyg_profile_func_enter(void *fn, void *callsite).
	EnterFunc func(tc xray.ThreadCtx, addr uint64)
	ExitFunc  func(tc xray.ThreadCtx, addr uint64)
}

// Name implements Backend.
func (b *CygBackend) Name() string { return "cyg-profile" }

// OnEnter implements Backend.
func (b *CygBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if b.EnterFunc != nil {
		b.EnterFunc(tc, fn.Addr)
	}
}

// OnExit implements Backend.
func (b *CygBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if b.ExitFunc != nil {
		b.ExitFunc(tc, fn.Addr)
	}
}

// InitCost implements Backend: the callbacks need no start-up.
func (b *CygBackend) InitCost(int) int64 { return 0 }

// ScorePBackend drives a Score-P measurement through the generic
// address-based interface: every event passes the function address to
// Score-P, which resolves it against its own symbol map. DynCaPI's symbol
// injection (the SymbolInjector implementation) teaches that map the DSO
// symbols it could not know by itself (§V-C1).
type ScorePBackend struct {
	M        *scorep.Measurement
	Resolver *scorep.Resolver

	// mu orders Reset (phase boundary) against OnDeselect (a control-plane
	// reconfigure can land at any time). The handler paths read M without
	// it: they only execute inside a phase, and Reset happens-before the
	// rank goroutines start.
	mu sync.Mutex
}

// NewScorePBackend wraps a measurement and resolver pair.
func NewScorePBackend(m *scorep.Measurement, r *scorep.Resolver) *ScorePBackend {
	return &ScorePBackend{M: m, Resolver: r}
}

// Reset attaches a fresh measurement for the next execution phase; the
// resolver (and its injected DSO symbols) is kept. Call it only between
// phases, never while handlers are executing (concurrent OnDeselect is
// safe: it serializes on the backend lock).
func (b *ScorePBackend) Reset(m *scorep.Measurement) {
	b.mu.Lock()
	b.M = m
	b.mu.Unlock()
}

// Name implements Backend.
func (b *ScorePBackend) Name() string { return "scorep" }

// OnEnter implements Backend.
func (b *ScorePBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.M.CygEnter(tc, b.Resolver, fn.Addr)
}

// OnExit implements Backend.
func (b *ScorePBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.M.CygExit(tc, b.Resolver, fn.Addr)
}

// InitCost implements Backend: Score-P builds its name/address map over all
// scanned symbols.
func (b *ScorePBackend) InitCost(symbols int) int64 { return b.M.InitCost(symbols) }

// InjectSymbol implements SymbolInjector.
func (b *ScorePBackend) InjectSymbol(addr uint64, name string) { b.Resolver.Inject(addr, name) }

// OnDeselect implements Deselector: every frame of the function's region
// still open on any rank's simulated call stack is closed with a synthetic
// exit, so live re-selection cannot leak open regions. Unresolvable
// functions recorded into the UNKNOWN region are skipped — their frames
// cannot be attributed to one function.
func (b *ScorePBackend) OnDeselect(fn *ResolvedFunc) int {
	b.mu.Lock()
	m := b.M
	b.mu.Unlock()
	name, ok := b.Resolver.Resolve(fn.Addr)
	if !ok {
		return 0
	}
	region, ok := m.LookupRegion(name)
	if !ok {
		return 0 // never entered
	}
	return m.CloseDangling(region)
}

// TALPBackend maps instrumented functions to TALP monitoring regions
// (§V-C2): a region is registered lazily on a function's first entry, and
// entry/exit events start/stop it. Registration fails permanently for
// functions entered before MPI_Init (§VI-B(b)).
type TALPBackend struct {
	Mon *talp.Monitor

	mu      sync.Mutex
	regions map[int32]*talpRegionState //capi:guardedby mu
}

type talpRegionState struct {
	reg    *talp.Region
	failed bool
}

// NewTALPBackend wraps a TALP monitor.
func NewTALPBackend(m *talp.Monitor) *TALPBackend {
	return &TALPBackend{Mon: m, regions: map[int32]*talpRegionState{}}
}

// Reset attaches a fresh monitor for the next execution phase and forgets
// the lazily registered regions (they belong to the previous monitor). Call
// it only between phases, never while handlers are executing (concurrent
// OnDeselect is safe: it serializes on the backend lock).
func (b *TALPBackend) Reset(m *talp.Monitor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Mon = m
	b.regions = map[int32]*talpRegionState{}
}

// Name implements Backend.
func (b *TALPBackend) Name() string { return "talp" }

func (b *TALPBackend) state(id int32) (*talpRegionState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.regions[id]
	return st, ok
}

// OnEnter implements Backend.
func (b *TALPBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if fn.Name == "" {
		return // unresolved: no region name available
	}
	mr, ok := tc.(mpiRanker)
	if !ok {
		return
	}
	rank := mr.MPIRank()
	st, seen := b.state(fn.PackedID)
	if !seen {
		// First entry anywhere: register the monitoring region.
		reg, err := b.Mon.Register(rank, fn.Name)
		st = &talpRegionState{reg: reg, failed: err != nil}
		b.mu.Lock()
		b.regions[fn.PackedID] = st
		b.mu.Unlock()
	}
	if st.failed || st.reg == nil {
		return
	}
	// Start may fail in bug-compat mode; the monitor records it.
	_ = b.Mon.Start(rank, st.reg)
}

// OnExit implements Backend.
func (b *TALPBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	if fn.Name == "" {
		return
	}
	mr, ok := tc.(mpiRanker)
	if !ok {
		return
	}
	st, seen := b.state(fn.PackedID)
	if !seen || st.failed || st.reg == nil {
		return
	}
	// A Stop without a matching Start (failed entry) is rejected by the
	// monitor; ignore it here.
	_ = b.Mon.Stop(mr.MPIRank(), st.reg)
}

// InitCost implements Backend.
func (b *TALPBackend) InitCost(int) int64 { return b.Mon.InitCost() }

// OnDeselect implements Deselector: dangling starts of the function's
// monitoring region are balanced with synthetic stops on every rank, so the
// accumulators close and the open count stays correct.
func (b *TALPBackend) OnDeselect(fn *ResolvedFunc) int {
	// Snapshot monitor and region under the lock: a phase boundary's Reset
	// may be swapping them while a control-plane reconfigure deselects.
	b.mu.Lock()
	mon := b.Mon
	st, ok := b.regions[fn.PackedID]
	b.mu.Unlock()
	if !ok || st.failed || st.reg == nil {
		return 0
	}
	return mon.CloseOpen(st.reg)
}

// ExtraeBackend records every event as a timestamped trace record in a
// per-rank sharded buffer (Extrae-style tracing): the enter/exit hot path
// appends to the executing rank's own shard under that shard's mutex —
// uncontended, a shard having one writer; only a mid-run Report snapshot
// ever waits on it — full rings are flushed as batched segments, and the
// end-of-run report merges the shards into one virtual-time-ordered
// timeline. It is the cheapest per-event backend after the discarding
// cyg-profile interface — the sharding is what keeps it that way under many
// ranks.
//
// The backend does not implement Deselector: a trace has no open state to
// close, and completeness of the event stream is asserted through the
// runtime's split drop counters (DroppedInFlight/DroppedUnpatched) plus the
// buffer's own drop/wrap accounting.
type ExtraeBackend struct {
	Buf *trace.Buffer
}

// Virtual-time costs of tracing, calibrated against the other backends:
// per-event cost is far below TALP's start/stop pair and Score-P's call-path
// upkeep — a trace write is a timestamp plus a buffer store — while the flush
// stall is paid once per BufEvents events. Costs carry the simulator's
// call-compression factor like the other backends' costs.
const (
	// extraeEventCost is charged per recorded event (timestamp + buffer
	// write).
	extraeEventCost = 140 * vtime.Microsecond
	// extraeFlushCost is charged to the rank whose ring filled up, once per
	// flushed segment (the batched write-out stall).
	extraeFlushCost = 2 * vtime.Millisecond
	// extraeInitBase is the tracer's fixed start-up cost.
	extraeInitBase = 400 * vtime.Millisecond
)

// NewExtraeBackend wraps a sharded trace buffer.
func NewExtraeBackend(buf *trace.Buffer) *ExtraeBackend {
	return &ExtraeBackend{Buf: buf}
}

// Reset attaches a fresh buffer for the next execution phase. Call it only
// between phases, never while handlers are executing.
func (b *ExtraeBackend) Reset(buf *trace.Buffer) {
	b.Buf = buf
}

// Name implements Backend.
func (b *ExtraeBackend) Name() string { return "extrae" }

// OnEnter implements Backend: charge the trace-write cost, record, and pay
// the flush stall when this append wrote out a full ring.
//
//capi:hotpath
func (b *ExtraeBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	c := tc.Clock()
	c.Advance(extraeEventCost)
	if b.Buf.Append(tc.RankID(), c.Now(), fn.PackedID, fn.Name, trace.Enter) {
		c.Advance(extraeFlushCost)
	}
}

// OnExit implements Backend. The exit timestamp is taken before the probe's
// own cost is charged, so tracing overhead does not inflate region time.
//
//capi:hotpath
func (b *ExtraeBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	c := tc.Clock()
	t := c.Now()
	c.Advance(extraeEventCost)
	if b.Buf.Append(tc.RankID(), t, fn.PackedID, fn.Name, trace.Exit) {
		c.Advance(extraeFlushCost)
	}
}

// InitCost implements Backend.
func (b *ExtraeBackend) InitCost(int) int64 { return extraeInitBase }
