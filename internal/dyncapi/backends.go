package dyncapi

import (
	"encoding/json"
	"sync"
	"sync/atomic"

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

// rankOf returns the context's simulated MPI rank, or nil without one.
func rankOf(tc xray.ThreadCtx) *mpi.Rank {
	if mr, ok := tc.(mpiRanker); ok {
		return mr.MPIRank()
	}
	return nil
}

// Envelope is the unified measurement-report envelope: every backend's
// end-of-run (or mid-phase) report self-describes with a kind tag and
// marshals itself to JSON, so consumers — Instance.Reports, the control
// plane's GET /v1/report — can carry reports of backends they have never
// heard of. (Report names the runtime's init report.)
type Envelope interface {
	// Kind names the report type ("talp", "profile", "trace", …).
	Kind() string
	json.Marshaler
}

// JSONReport wraps any JSON-marshallable value as an Envelope. Custom
// backends can use it instead of hand-writing an envelope type.
type JSONReport struct {
	ReportKind string
	Value      any
}

// Kind implements Envelope.
func (r JSONReport) Kind() string { return r.ReportKind }

// MarshalJSON implements Envelope.
func (r JSONReport) MarshalJSON() ([]byte, error) { return json.Marshal(r.Value) }

// Every built-in backend is a MeasurementBackend: event interface and phase
// lifecycle in one type. StartPhase replaces the per-phase measurement (Mon,
// M, Buf) while HTTP worker ranks may still be dispatching, so the handlers
// read it through an atomic pointer.

// CygBackend is the default GCC-compatible interface, registered as "none":
// it forwards events to __cyg_profile_func_enter/exit-style callbacks
// carrying only the function address (§V-C), and with no callbacks set it
// discards them (overhead studies). It has no per-phase state and no report.
type CygBackend struct {
	// EnterFunc and ExitFunc receive the function address, like
	// __cyg_profile_func_enter(void *fn, void *callsite).
	EnterFunc func(tc xray.ThreadCtx, addr uint64)
	ExitFunc  func(tc xray.ThreadCtx, addr uint64)
}

// Name implements Backend: the registry name of the discarding backend.
func (b *CygBackend) Name() string { return "none" }

// StartPhase implements MeasurementBackend: there is no per-phase state.
func (b *CygBackend) StartPhase(*mpi.World) error { return nil }

// Report implements MeasurementBackend: the callbacks keep no report.
func (b *CygBackend) Report() Envelope { return nil }

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
	M        atomic.Pointer[scorep.Measurement]
	Resolver *scorep.Resolver
}

// NewScorePBackend wraps a measurement and resolver pair.
func NewScorePBackend(m *scorep.Measurement, r *scorep.Resolver) *ScorePBackend {
	b := &ScorePBackend{Resolver: r}
	b.M.Store(m)
	return b
}

// Name implements Backend.
func (b *ScorePBackend) Name() string { return "scorep" }

// StartPhase attaches a fresh measurement, built with the options of the
// one it replaces; the resolver (and its injected DSO symbols) is kept.
func (b *ScorePBackend) StartPhase(*mpi.World) error {
	m, err := scorep.New(b.M.Load().Options())
	if err != nil {
		return err
	}
	b.M.Store(m)
	return nil
}

// Report returns the current phase's call-path profile.
func (b *ScorePBackend) Report() Envelope {
	return JSONReport{ReportKind: "profile", Value: b.M.Load().Profile()}
}

// OnEnter implements Backend.
func (b *ScorePBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.M.Load().CygEnter(tc, b.Resolver, fn.Addr)
}

// OnExit implements Backend.
func (b *ScorePBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.M.Load().CygExit(tc, b.Resolver, fn.Addr)
}

// InitCost implements Backend: Score-P builds its name/address map over all
// scanned symbols.
func (b *ScorePBackend) InitCost(symbols int) int64 { return b.M.Load().InitCost(symbols) }

// InjectSymbol implements SymbolInjector.
func (b *ScorePBackend) InjectSymbol(addr uint64, name string) { b.Resolver.Inject(addr, name) }

// OnDeselect implements Deselector: every frame of the function's region
// still open on any rank's simulated call stack is closed with a synthetic
// exit, so live re-selection cannot leak open regions. Unresolvable
// functions recorded into the UNKNOWN region are skipped — their frames
// cannot be attributed to one function.
func (b *ScorePBackend) OnDeselect(fn *ResolvedFunc) int {
	m := b.M.Load()
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
// (§V-C2): entry/exit events start/stop the function's region. The monitor
// owns registration: a region is registered on a function's first entry on
// each rank, and fails permanently on that rank when entered before
// MPI_Init (§VI-B(b)).
type TALPBackend struct {
	Mon atomic.Pointer[talp.Monitor]
}

// NewTALPBackend wraps a TALP monitor.
func NewTALPBackend(m *talp.Monitor) *TALPBackend {
	b := &TALPBackend{}
	b.Mon.Store(m)
	return b
}

// Name implements Backend.
func (b *TALPBackend) Name() string { return "talp" }

// StartPhase attaches a fresh monitor over the new phase's world, built
// with the options of the one it replaces.
func (b *TALPBackend) StartPhase(w *mpi.World) error {
	b.Mon.Store(talp.New(w, b.Mon.Load().Options()))
	return nil
}

// Report returns the current phase's per-region POP metrics.
func (b *TALPBackend) Report() Envelope {
	return JSONReport{ReportKind: "talp", Value: b.Mon.Load().Report()}
}

// OnEnter implements Backend.
func (b *TALPBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.Mon.Load().Enter(rankOf(tc), fn.Name)
}

// OnExit implements Backend.
func (b *TALPBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.Mon.Load().Exit(rankOf(tc), fn.Name)
}

// InitCost implements Backend.
func (b *TALPBackend) InitCost(int) int64 { return b.Mon.Load().InitCost() }

// OnDeselect implements Deselector: dangling starts of the function's
// monitoring region are balanced with synthetic stops on every rank, so the
// accumulators close and the open count stays correct.
func (b *TALPBackend) OnDeselect(fn *ResolvedFunc) int {
	return b.Mon.Load().CloseOpen(fn.Name)
}

// ExtraeBackend records every event as a timestamped trace record in a
// per-rank sharded buffer (Extrae-style tracing): the enter/exit hot path
// appends a 16-byte record to the executing rank's own shard with no lock,
// publishing it with one atomic store; full rings are flushed as batched
// segments, and the end-of-run report merges the shards into one
// virtual-time-ordered timeline, named through the runtime's function table.
// It is the cheapest per-event backend after the discarding cyg-profile
// interface — the sharding is what keeps it that way under many ranks.
//
// The backend does not implement Deselector: a trace has no open state to
// close, and completeness of the event stream is asserted through the
// runtime's split drop counters (DroppedInFlight/DroppedUnpatched) plus the
// buffer's own drop/wrap accounting.
type ExtraeBackend struct {
	Buf atomic.Pointer[trace.Buffer]

	mu    sync.Mutex         // orders StartPhase against bindNames
	names func(int32) string //capi:guardedby mu
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
	b := &ExtraeBackend{}
	b.Buf.Store(buf)
	return b
}

// Name implements Backend.
func (b *ExtraeBackend) Name() string { return "extrae" }

// StartPhase attaches a fresh buffer, built with the options and the name
// lookup of the one it replaces.
func (b *ExtraeBackend) StartPhase(*mpi.World) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, err := trace.New(b.Buf.Load().Options())
	if err != nil {
		return err
	}
	buf.BindNames(b.names)
	b.Buf.Store(buf)
	return nil
}

// bindNames implements nameBinder.
func (b *ExtraeBackend) bindNames(names func(int32) string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.names = names
	b.Buf.Load().BindNames(names)
}

// Report returns the current phase's trace report.
func (b *ExtraeBackend) Report() Envelope {
	return JSONReport{ReportKind: "trace", Value: b.Buf.Load().Report()}
}

// OnEnter implements Backend: charge the trace-write cost, record, and pay
// the flush stall when this append wrote out a full ring.
//
//capi:hotpath
func (b *ExtraeBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	c := tc.Clock()
	c.Advance(extraeEventCost)
	if b.Buf.Load().Append(tc.RankID(), c.Now(), fn.PackedID, trace.Enter) {
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
	if b.Buf.Load().Append(tc.RankID(), t, fn.PackedID, trace.Exit) {
		c.Advance(extraeFlushCost)
	}
}

// InitCost implements Backend.
func (b *ExtraeBackend) InitCost(int) int64 { return extraeInitBase }
