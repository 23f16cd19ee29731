package capi

import (
	"fmt"
	"sync"
	"time"

	"capi/internal/adapt"
	"capi/internal/callgraph"
	"capi/internal/compiler"
	"capi/internal/core"
	"capi/internal/deadline"
	"capi/internal/dyncapi"
	"capi/internal/exec"
	"capi/internal/ic"
	"capi/internal/metacg"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/prog"
	"capi/internal/scorep"
	"capi/internal/spec"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/workload"
	"capi/internal/xray"
)

// Re-exported types, so library users can drive the full workflow without
// importing internal packages directly.
type (
	// Program is the synthetic application model fed to the toolchain.
	Program = prog.Program
	// Graph is a whole-program call graph (MetaCG result).
	Graph = callgraph.Graph
	// Build is a compiled program (object images + layout).
	Build = compiler.Build
	// IC is an instrumentation configuration.
	IC = ic.Config
	// TALPReport is TALP's end-of-run region summary.
	TALPReport = talp.Report
	// Profile is Score-P's aggregated call-path profile.
	Profile = scorep.Profile
	// LuleshOptions sizes the LULESH workload generator.
	LuleshOptions = workload.LuleshOptions
	// OpenFOAMOptions sizes the OpenFOAM workload generator.
	OpenFOAMOptions = workload.OpenFOAMOptions
	// ModuleLoader resolves !import directives in specifications.
	ModuleLoader = spec.ModuleLoader
	// MapModules serves specification modules from an in-memory map.
	MapModules = spec.MapLoader
	// AdaptOptions tunes the live overhead-budget controller.
	AdaptOptions = adapt.Options
	// AdaptEpoch records one controller decision (per epoch boundary).
	AdaptEpoch = adapt.Epoch
	// SLOStatus is the SLO-mode controller snapshot (per-endpoint tail
	// latency vs. target, plus the ladder steps in effect).
	SLOStatus = adapt.SLOStatus
	// SLOEndpoint is one endpoint row of SLOStatus.
	SLOEndpoint = adapt.SLOEndpoint
	// WebEndpoint describes one route of the Webservice workload.
	WebEndpoint = workload.Endpoint
	// ReconfigReport summarizes one live re-selection (delta re-patch).
	ReconfigReport = dyncapi.ReconfigReport
	// TraceReport is the extrae backend's end-of-run trace summary:
	// per-rank accounting (recorded/dropped/wrapped/flushes), per-function
	// totals and the virtual-time-ordered merged timeline.
	TraceReport = trace.Report
	// TraceOptions tunes the extrae backend's sharded trace buffer (ring
	// size, retained budget, drop vs. wrap policy).
	TraceOptions = trace.Options
	// SamplingPolicy is one function's sampling/suppression policy
	// (1-in-N stride, min-duration suppression, redundancy collapse).
	SamplingPolicy = dyncapi.SamplePolicy
	// SamplingOptions is a whole sampling table: a default policy plus
	// per-function overrides, applied atomically to the live hot path.
	SamplingOptions = dyncapi.SamplingConfig
	// SamplingSnapshot is the point-in-time sampling view (policies +
	// conservation counters) served on /v1/status and in reports.
	SamplingSnapshot = dyncapi.SamplingSnapshot
	// SamplingCounters is the sampler's conservation accounting:
	// enters == delivered + sampledEvents + suppressedPairs + collapsedCalls.
	SamplingCounters = dyncapi.SamplingCounters
)

// Workload generators (stand-ins for the paper's two test cases plus a
// small app for quick starts).
var (
	// Lulesh generates the LULESH 2.0 proxy-app stand-in (§VI).
	Lulesh = workload.Lulesh
	// OpenFOAM generates the icoFoam / lid-driven-cavity stand-in (§VI).
	OpenFOAM = workload.OpenFOAM
	// Quickstart generates a ~35-function miniature MPI application.
	Quickstart = workload.Quickstart
	// Webservice generates the request-serving web-service workload whose
	// endpoints the capi/middleware package serves over net/http.
	Webservice = workload.Webservice
	// WebserviceEndpoints returns the Webservice route table (mux pattern,
	// handler function, traffic weight, lognormal latency shape).
	WebserviceEndpoints = workload.WebserviceEndpoints
)

// Backend names the measurement system a Run feeds (Fig. 3). The set is
// open: RegisterBackend adds new names, RegisteredBackends lists them. The
// constants below are the built-ins.
type Backend string

// The built-in measurement backends.
const (
	// BackendNone patches but discards events through the generic
	// cyg-profile interface (overhead studies).
	BackendNone Backend = "none"
	// BackendTALP records POP parallel-efficiency metrics per region.
	BackendTALP Backend = "talp"
	// BackendScoreP records call-path profiles.
	BackendScoreP Backend = "scorep"
	// BackendExtrae records a per-rank sharded event trace with a merged
	// end-of-run timeline (Extrae-style tracing).
	BackendExtrae Backend = "extrae"
)

// SessionOptions configures session preparation.
type SessionOptions struct {
	// OptLevel is the modelled optimization level (2 or 3; default 2). It
	// controls auto-inlining and therefore which functions lose symbols
	// and sleds (§V-E).
	OptLevel int
	// XRayThreshold is the sled pre-filter ("-fxray-instruction-
	// threshold"); the DynCaPI default of 1 prepares every function (§IV).
	XRayThreshold int
	// Modules resolves !import directives beyond the built-in ones.
	Modules ModuleLoader
	// RankWorkSkew scales per-rank work to model load imbalance; defaults
	// to a balanced run. Index = rank.
	RankWorkSkew []float64
}

// Session is one application prepared for runtime-adaptable instrumentation:
// generated (or supplied), analysed into a whole-program call graph, and
// compiled once with XRay sleds everywhere. The Fig. 1 loop then iterates
// Select and Run without ever rebuilding.
type Session struct {
	prog  *prog.Program
	graph *callgraph.Graph
	build *compiler.Build
	opts  SessionOptions
	stats BuildStats

	// The uninstrumented build for baselines, compiled on first use.
	vanillaOnce sync.Once
	vanilla     *compiler.Build
	vanillaErr  error
}

// BuildStats is the wall-clock time NewSession spent, by stage. The call
// graph and the compile run side by side, so Total is less than the sum.
type BuildStats struct {
	ValidateSeconds  float64 `json:"validateSeconds"`
	CallGraphSeconds float64 `json:"callGraphSeconds"`
	CompileSeconds   float64 `json:"compileSeconds"`
	TotalSeconds     float64 `json:"totalSeconds"`
}

// NewAppSession prepares a session over one of the named stand-in
// workloads — "quickstart", "lulesh", "openfoam" or "webservice" (scale
// sizes the OpenFOAM call graph; it is ignored otherwise). The
// optimization levels match the paper's builds (LULESH at -O3, the rest
// at -O2). This is the shared entry point of the CLI tools' -app flags.
func NewAppSession(app string, scale float64) (*Session, error) {
	switch app {
	case "quickstart":
		return NewSession(Quickstart(), SessionOptions{OptLevel: 2})
	case "lulesh":
		return NewSession(Lulesh(LuleshOptions{}), SessionOptions{OptLevel: 3})
	case "openfoam":
		return NewSession(OpenFOAM(OpenFOAMOptions{Scale: scale}), SessionOptions{OptLevel: 2})
	case "webservice":
		return NewSession(Webservice(), SessionOptions{OptLevel: 2})
	default:
		return nil, fmt.Errorf("capi: unknown app %q", app)
	}
}

// NewSession analyses and compiles the program for dynamic instrumentation:
// it validates the program once, then builds the whole-program call graph
// and the XRay build side by side — both only read the validated program.
func NewSession(p *Program, opts SessionOptions) (*Session, error) {
	if p == nil {
		return nil, fmt.Errorf("capi: nil program")
	}
	s := &Session{prog: p, opts: opts}
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("capi: %w", err)
	}
	s.stats.ValidateSeconds = time.Since(start).Seconds()
	graphed := make(chan struct{})
	go func() {
		defer close(graphed)
		t0 := time.Now()
		s.graph = metacg.BuildWholeProgram(p, metacg.Options{})
		s.stats.CallGraphSeconds = time.Since(t0).Seconds()
	}()
	t0 := time.Now()
	b, err := compiler.CompileValidated(p, compiler.Options{
		XRay:          true,
		XRayThreshold: opts.XRayThreshold,
		OptLevel:      opts.OptLevel,
	})
	s.stats.CompileSeconds = time.Since(t0).Seconds()
	<-graphed
	if err != nil {
		return nil, fmt.Errorf("capi: %w", err)
	}
	s.build = b
	s.stats.TotalSeconds = time.Since(start).Seconds()
	return s, nil
}

// BuildStats returns how long NewSession took, by stage.
func (s *Session) BuildStats() BuildStats { return s.stats }

// Graph returns the whole-program call graph.
func (s *Session) Graph() *Graph { return s.graph }

// Build returns the XRay-instrumented build.
func (s *Session) Build() *Build { return s.build }

// Program returns the underlying program.
func (s *Session) Program() *Program { return s.prog }

// Selection is the outcome of one Select call: the IC plus the paper's
// Table I statistics.
type Selection struct {
	// IC is the instrumentation configuration to apply at run time.
	IC *IC
	// Pre is the number of selected functions before post-processing.
	Pre int
	// Selected is the count after removing inlined functions (§V-E).
	Selected int
	// Added is the number of compensation functions added (§V-E).
	Added int
	// RemovedInlined and AddedCompensation list the affected functions.
	RemovedInlined    []string
	AddedCompensation []string
	// Seconds is the wall-clock selection time (Table I's Time column).
	Seconds float64
}

// Select evaluates a CaPI specification against the session's call graph
// and returns the resulting instrumentation configuration. Inlining
// compensation runs against the session's build (§V-E).
func (s *Session) Select(specSource string) (*Selection, error) {
	eng := core.NewEngine(s.graph)
	res, err := eng.RunSource(specSource, core.Options{
		Symbols: s.build,
		Loader:  s.loader(),
	})
	if err != nil {
		return nil, err
	}
	return &Selection{
		IC:                res.IC(s.prog.Name, ""),
		Pre:               res.Pre.Count(),
		Selected:          res.Selected.Count(),
		Added:             len(res.AddedCompensation),
		RemovedInlined:    res.RemovedInlined,
		AddedCompensation: res.AddedCompensation,
		Seconds:           res.SelectionTime.Seconds(),
	}, nil
}

func (s *Session) loader() spec.ModuleLoader {
	if s.opts.Modules == nil {
		return spec.BuiltinModules{}
	}
	return spec.ChainLoader{s.opts.Modules, spec.BuiltinModules{}}
}

// AttachStaticIDs augments the selection's IC with statically determined
// packed XRay IDs (the §VI-B(a) extension the paper proposes): with IDs in
// the IC, Run can patch hidden DSO functions that name resolution cannot
// reach. The selection is modified in place.
func (s *Session) AttachStaticIDs(sel *Selection) error {
	if sel == nil || sel.IC == nil {
		return fmt.Errorf("capi: nil selection")
	}
	ids, err := s.build.StaticPackedIDs()
	if err != nil {
		return err
	}
	sel.IC = sel.IC.WithIDs(ids)
	return nil
}

// RunOptions configures one measured execution.
type RunOptions struct {
	// Backends selects the measurement systems by registry name. With
	// several names, a fan-out mux delivers every enter/exit event to each
	// of them — one run records TALP efficiency *and* an Extrae trace from
	// the same event stream. Order is delivery (and report) order. Empty
	// means {"none"}.
	Backends []string
	// Ranks is the simulated MPI world size (default 4).
	Ranks int
	// PatchAll patches every sled regardless of the selection (the
	// paper's "xray full" variant).
	PatchAll bool
	// EmulateTALPBug enables TALP's re-entry bug compat mode (§VI-B(b)).
	EmulateTALPBug bool
	// Adapt enables the live overhead-budget controller: it watches
	// per-function event counts and, at epoch boundaries of the virtual
	// clock, narrows the selection in place (hottest low-duration
	// functions dropped first) whenever the instrumentation overhead
	// exceeds the budget. nil disables adaptation.
	Adapt *AdaptOptions
	// Trace tunes the extrae backend's sharded buffer; nil uses defaults
	// (4096-event rings, unbounded retention). Its Ranks field is ignored:
	// the buffer is sharded over Ranks + HTTPWorkers. Ignored for other
	// backends.
	Trace *TraceOptions
	// Sampling installs an initial sampling/suppression table: per-function
	// 1-in-N stride sampling, min-duration suppression and redundancy
	// collapse between the XRay handler and the backend chain. nil starts
	// unsampled; Instance.SetSampling changes the table on a live run.
	Sampling *SamplingOptions
	// Async lifts the measurement backends off the dispatch hot path: the
	// XRay handler appends a compact event record to a bounded per-rank ring
	// and returns; a consumer pool replays the records through the backend
	// chain asynchronously. Phase-end results are exact (Run drains the
	// pipeline before capturing them); overload drops whole enter/exit
	// pairs, counted in DroppedAsync. Incompatible with budget-mode Adapt
	// (epochs are detected on live rank clocks); SLO-mode Adapt works.
	Async bool
	// AsyncBuf is the per-rank ring capacity in events (0 = the
	// dyncapi.DefaultAsyncBuf default). Only meaningful with Async.
	AsyncBuf int
	// HTTPWorkers sizes the pool of request contexts the capi/middleware
	// package may check out (Instance.NewRequestContexts): each worker is
	// a dedicated dispatch rank beyond the MPI world, with its own async
	// pipeline shard and sampler slot, so concurrent HTTP requests keep
	// the single-writer hot-path contract. 0 means no middleware pool.
	HTTPWorkers int
	// PanicLimit is the per-backend circuit-breaker threshold: every
	// registry-built backend runs behind a panic barrier, and after this
	// many recovered panics in one backend's delivery paths (events,
	// synthetic exits, StartPhase, Report) the backend is auto-detached
	// from the live chain — the instrumented process never crashes because
	// a measurement tool did. 0 uses DefaultPanicLimit; negative keeps the
	// barrier (panics recovered and counted) but never detaches.
	PanicLimit int
}

// RunResult is the outcome of one measured execution.
type RunResult struct {
	// InitSeconds is the virtual instrumentation set-up cost this phase
	// paid before executing: the DynCaPI start-up time (Table II T_init)
	// on an instance's first run, the accumulated live re-patch cost of
	// Reconfigure calls on later runs. Negative when no instrumentation
	// runtime ran.
	InitSeconds float64
	// TotalSeconds is the virtual end-to-end runtime of this phase
	// including InitSeconds (Table II T_total).
	TotalSeconds float64
	// Events is the number of instrumentation events dispatched during
	// this phase.
	Events int64
	// Patched is the number of functions whose sleds were patched at
	// DynCaPI start-up.
	Patched int
	// ActiveFuncs is the selection size when the phase ended; it differs
	// from Patched after live re-selection (Reconfigure or Adapt).
	ActiveFuncs int
	// Reconfigs counts the live re-selections applied so far (manual
	// Reconfigure calls and controller decisions).
	Reconfigs int
	// DroppedFuncs lists the functions the adaptive controller has
	// deselected, in drop order.
	DroppedFuncs []string
	// DemotedFuncs lists the functions the controller currently keeps
	// demoted to 1-in-N sampling (the gentler knob it tries before
	// deselection).
	DemotedFuncs []string
	// AdaptEpochs carries the controller's per-epoch decisions when
	// RunOptions.Adapt was set.
	AdaptEpochs []AdaptEpoch
	// Sampling carries the sampler's exact end-of-phase counters and
	// installed policies; nil when no sampling policy was ever installed.
	// On an async run it is captured after the pipeline drain barrier, so
	// the counters reconcile exactly against what the backends received.
	Sampling *SamplingSnapshot
	// DroppedAsync is the cumulative count of enter/exit pairs the async
	// pipeline rejected under back-pressure (always 0 on inline runs). The
	// exact conservation identity on an async run is
	// enters == delivered + sampledOut + suppressed + collapsed + droppedAsync.
	DroppedAsync int64
	// DroppedPanicked is the cumulative count of enters the panic barriers
	// swallowed (the enter that panicked, plus every enter arriving at an
	// open breaker or a detached backend's tombstone), summed over every
	// backend ever attached. It extends the per-backend conservation
	// identity: for each backend,
	// enters == delivered + sampledOut + suppressed + collapsed + droppedAsync + droppedPanicked,
	// where "delivered" means delivered to the backend successfully.
	DroppedPanicked int64
	// Breaker carries the per-backend panic-barrier stats of every backend
	// that ever panicked; DetachedBackends lists the backends the circuit
	// breaker removed from the live instance, in trip order.
	Breaker          []BreakerStatus `json:",omitempty"`
	DetachedBackends []string        `json:",omitempty"`
	// Backends lists the attached measurement backends in delivery order;
	// Reports carries each backend's end-of-phase report, keyed by backend
	// name (backends that produced nothing are absent).
	Backends []string
	Reports  map[string]Report
	// WallSeconds is the real time the simulation took (diagnostics).
	WallSeconds float64
}

// Instance is a live execution environment prepared by Session.Start: the
// loaded process, its XRay runtime and — when instrumented — the DynCaPI
// runtime with the measurement backend attached. It is the unit of
// *runtime adaptability*: the selection can be changed in place with
// Reconfigure (only the delta sleds are re-patched) and the workload can be
// executed repeatedly with Run, without ever rebuilding or re-initializing
// the instrumentation — the Fig. 1 loop without leaving the process.
//
// An Instance is safe for concurrent use: Reconfigure, Retune and every
// accessor (Status, Reports, Sampling, …) may be called from
// other goroutines while a Run executes — this is what lets the HTTP
// control plane (internal/ctl) drive a live instance remotely. Concurrent
// Run calls serialize: phases never overlap.
type Instance struct {
	s    *Session
	opts RunOptions

	proc *obj.Process
	xr   *xray.Runtime
	rt   *dyncapi.Runtime
	ctrl *adapt.Controller

	// runMu serializes Run calls: one phase at a time.
	runMu sync.Mutex

	// mu guards the per-phase state below. Run swaps the world and each
	// backend's measurement substrate at phase boundaries while the control
	// plane reads them for live reports; pendingNs is charged by Reconfigure
	// on one goroutine and billed by Run on another; SetBackends swaps the
	// backend set as a whole.
	mu    sync.Mutex
	world *mpi.World
	// backends is the attached measurement-backend set, registry-built, in
	// delivery order. curWorld always points at the most recent phase's
	// world so a backend swapped in mid-phase can attach to it.
	backends []MeasurementBackend
	curWorld *mpi.World
	// pendingNs is virtual set-up cost to charge to the next Run: T_init
	// before the first phase, accumulated Reconfigure costs afterwards.
	pendingNs int64
	runs      int
	running   bool
	events    int64 // dispatched events, accumulated across completed phases
	wallStart time.Time
	// guards holds the panic barrier of every backend ever attached (the
	// live set and the breaker-detached ones), in attach order — the drop
	// accounting is cumulative, so conservation stays exact across
	// detaches. detached lists the names the breaker removed, in trip
	// order; breakerNotify is the trip callback (SetBreakerNotify).
	guards        []*dyncapi.Guard
	detached      []string
	breakerNotify func(BreakerEvent)

	// ttl is the ephemeral-probe scheduler: pending auto-reverts for TTL'd
	// selections and sampling overrides (see ttl.go). It has its own lock;
	// the ttl.mu → (rt locks) order matches mu's.
	ttl ttlState

	// http is the middleware support state: the request-context allocator,
	// lazy name→ID index and per-endpoint latency accounting (http.go). It
	// has its own lock, never held together with mu.
	http httpState
}

// Start prepares a live instance: the build is loaded, the XRay runtime
// registers every patchable object, and the selection is patched in (one
// coalesced batch). A nil selection with RunOptions.PatchAll false prepares
// an uninstrumented instance (the "xray inactive" baseline).
func (s *Session) Start(sel *Selection, opts RunOptions) (*Instance, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 4
	}
	if opts.Adapt != nil {
		if err := checkAdapt(*opts.Adapt); err != nil {
			return nil, err
		}
	}
	proc, err := s.build.LoadProcess()
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(opts.Ranks, mpi.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		return nil, err
	}
	inst := &Instance{s: s, opts: opts, proc: proc, xr: xr, world: world, curWorld: world, wallStart: time.Now()}
	inst.ttl.loop = deadline.New(inst.ttlNext, inst.deliverExpiries)

	var cfg *ic.Config
	if sel != nil {
		cfg = sel.IC
	}
	if cfg == nil && !opts.PatchAll {
		return inst, nil // uninstrumented baseline
	}

	names := opts.Backends
	if len(names) == 0 {
		names = []string{string(BackendNone)}
	}
	backends, err := inst.buildBackends(names, world)
	if err != nil {
		return nil, err
	}
	inst.backends = backends
	inst.guards = guardsOf(backends)
	if opts.Adapt != nil {
		if opts.Async && opts.Adapt.SLOTargetP99Ns <= 0 {
			// Budget mode stays incompatible with the pipeline. SLO mode is
			// fine: its decisions are driven by request latencies observed on
			// the middleware's live worker clocks, not by backend-chain
			// events, so replay does not starve the controller.
			return nil, fmt.Errorf("capi: Async and Adapt are incompatible: the overhead-budget controller detects epoch boundaries on live rank clocks, which the replayed pipeline events do not advance")
		}
		inst.ctrl = adapt.New(*opts.Adapt)
	}
	rt, err := dyncapi.New(proc, xr, cfg, inst.chain(backends), dyncapi.Options{
		PatchAll: opts.PatchAll,
		// HTTP middleware workers are extra dispatch ranks past the MPI
		// world: sized here so each gets its own pipeline shard and sampler
		// slot instead of overflowing to the cold paths.
		Ranks:    opts.Ranks + opts.HTTPWorkers,
		Async:    opts.Async,
		AsyncBuf: opts.AsyncBuf,
	})
	if err != nil {
		return nil, err
	}
	if inst.ctrl != nil {
		inst.ctrl.Attach(rt)
	}
	if opts.Sampling != nil {
		if err := rt.SetSampling(*opts.Sampling); err != nil {
			return nil, err
		}
	}
	inst.rt = rt
	inst.pendingNs = rt.Report().InitVirtualNs
	// Pre-publication writes: the TTL base snapshots start as the initial
	// explicit selection/sampling table, before any other goroutine can see
	// the instance.
	inst.ttl.userIC = cfg //capi:unguarded-ok pre-publication init in Start
	if opts.Sampling != nil {
		inst.ttl.lastSampling = copySamplingConfig(*opts.Sampling) //capi:unguarded-ok pre-publication init in Start
	}
	return inst, nil
}

// Reconfigure applies a new selection to the live instance: the currently
// patched set is diffed against the new IC and only the delta sleds are
// re-patched, under coalesced mprotect windows. The accumulated virtual
// re-patch cost is charged to the next Run as its set-up time — the dynamic
// workflow's turnaround, where the static workflow pays a recompile. A
// reconfiguration landing *during* a phase (another goroutine is inside
// Run — the control plane's remote re-selection) is charged to that phase.
//
// An explicit Reconfigure cancels a pending TTL revert (ReconfigureTTL):
// the newest explicit selection wins, and becomes the base a later TTL'd
// override reverts to.
func (i *Instance) Reconfigure(sel *Selection) (ReconfigReport, error) {
	if i.rt == nil {
		return ReconfigReport{}, fmt.Errorf("capi: instance is not instrumented")
	}
	if sel == nil || sel.IC == nil {
		return ReconfigReport{}, fmt.Errorf("capi: nil selection")
	}
	rep, err := i.applySelection(sel.IC)
	if err != nil {
		return rep, err
	}
	i.ttlExplicitSelect(sel.IC)
	return rep, nil
}

// applySelection re-patches to cfg and charges the virtual cost to the
// next phase — shared by Reconfigure, ReconfigureTTL and TTL expiry (which
// must not cancel the pending revert it is delivering).
func (i *Instance) applySelection(cfg *ic.Config) (ReconfigReport, error) {
	rep, err := i.rt.Reconfigure(cfg)
	if err != nil {
		return rep, err
	}
	i.mu.Lock()
	i.pendingNs += rep.VirtualNs
	i.mu.Unlock()
	return rep, nil
}

// Retune adjusts the live overhead-budget controller's tuning (budget,
// epoch length, reconfiguration bound) while the workload executes. Zero
// fields keep their current value; a negative MaxReconfigs lifts the bound.
// It fails when the instance was started without RunOptions.Adapt, and
// applies nothing when a field is out of range.
func (i *Instance) Retune(opts AdaptOptions) (AdaptOptions, error) {
	if i.ctrl == nil {
		return AdaptOptions{}, fmt.Errorf("capi: instance is not adaptive (start with RunOptions.Adapt)")
	}
	if err := checkAdapt(opts); err != nil {
		return AdaptOptions{}, err
	}
	return i.ctrl.Retune(opts), nil
}

// checkAdapt rejects controller tuning out of range. The SLO window sizes a
// per-endpoint allocation, so it is capped at the latency window /v1/status
// keeps per endpoint.
func checkAdapt(o AdaptOptions) error {
	if o.SLOWindow > httpLatencyRing {
		return &dyncapi.PolicyError{Field: "sloWindow", Msg: fmt.Sprintf("capi: SLO window %d exceeds %d requests", o.SLOWindow, httpLatencyRing)}
	}
	return nil
}

// SetSampling replaces the live instance's sampling/suppression table:
// per-function 1-in-N stride sampling, min-duration suppression and
// redundancy collapse in the dispatch hot path, published atomically so
// rates change mid-phase without locking the handlers. The config is
// validated — including function-name resolution — before anything is
// applied, so an error implies the previous table is untouched. An empty
// config clears all policies. On an adaptive instance the table replaces
// the controller's demotions too (the controller re-demotes at the next
// epoch if pressure persists).
//
// An explicit SetSampling cancels a pending TTL revert (SetSamplingTTL):
// the newest explicit table wins, and becomes the base a later TTL'd
// override reverts to.
func (i *Instance) SetSampling(cfg SamplingOptions) error {
	if i.rt == nil {
		return fmt.Errorf("capi: instance is not instrumented")
	}
	if err := i.applySampling(cfg); err != nil {
		return err
	}
	i.ttlExplicitSampling(cfg)
	return nil
}

// applySampling installs a sampling table and re-arms the adapt ladder —
// shared by SetSampling, SetSamplingTTL and TTL expiry (which must not
// cancel the pending revert it is delivering).
func (i *Instance) applySampling(cfg SamplingOptions) error {
	if err := i.rt.SetSampling(cfg); err != nil {
		return err
	}
	if i.ctrl != nil {
		// The table replacement wiped the controller's demotion policies;
		// drop the ladder bookkeeping with them so the controller demotes
		// again (rather than escalating straight to deselection, or
		// promoting stale entries over the new table).
		i.ctrl.ResetLadder()
	}
	return nil
}

// Sampling returns the live sampling view: installed policies plus the
// conservation counters (enters == delivered + sampledEvents +
// suppressedPairs + collapsedCalls). Mid-phase the counters may lag the
// hot path by up to one publication window; after a completed phase they
// are exact. Zero value for an uninstrumented instance.
func (i *Instance) Sampling() SamplingSnapshot {
	if i.rt == nil {
		return SamplingSnapshot{}
	}
	return i.rt.SamplingSnapshot()
}

// FlushSampling publishes the exact per-rank sampling counters, HTTP
// worker ranks included (Run flushes only the MPI world's). Quiescent
// only: no phase may be executing and no request may be dispatching —
// stop the traffic first. Serving processes call it before reading a
// final, exact Sampling() accounting of their request traffic.
func (i *Instance) FlushSampling() {
	if i.rt != nil {
		i.rt.FlushSampling()
	}
}

// measurementBackends snapshots the attached backend set.
func (i *Instance) measurementBackends() []MeasurementBackend {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.backends
}

// Reports returns the unified report envelope: every attached measurement
// backend's current report, keyed by backend name (backends that have
// produced nothing yet are absent). Safe to call while a Run is executing —
// each backend snapshots its own substrate under its lock, so a mid-phase
// report is per-backend consistent.
func (i *Instance) Reports() map[string]Report {
	out := map[string]Report{}
	for _, mb := range i.measurementBackends() {
		if rep := mb.Report(); rep != nil {
			out[mb.Name()] = rep
		}
	}
	return out
}

// Backends returns the names of the attached measurement backends, in
// delivery order. Empty for an uninstrumented instance.
func (i *Instance) Backends() []string {
	mbs := i.measurementBackends()
	names := make([]string, len(mbs))
	for idx, mb := range mbs {
		names[idx] = mb.Name()
	}
	return names
}

// SetBackends swaps the attached measurement-backend set while the instance
// is live: the patched sleds and the selection are untouched, the event
// stream simply starts feeding the new set. Detaching backends close their
// open state with synthetic exits (counted per backend in the returned
// BackendSwapReport) because an enter they recorded can never be balanced
// after the detach; the new set's virtual start-up cost is charged to the
// next (or current) phase. On an adaptive instance the controller stays
// attached, behind the new set, and keeps deciding.
func (i *Instance) SetBackends(names []string) (BackendSwapReport, error) {
	if i.rt == nil {
		return BackendSwapReport{}, fmt.Errorf("capi: instance is not instrumented")
	}
	if len(names) == 0 {
		return BackendSwapReport{}, fmt.Errorf("capi: empty backend list")
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	backends, err := i.buildBackends(names, i.curWorld)
	if err != nil {
		return BackendSwapReport{}, err
	}
	rep, err := i.rt.SwapBackend(i.chain(backends))
	if err != nil {
		return rep, err
	}
	i.backends = backends
	i.guards = append(i.guards, guardsOf(backends)...)
	i.pendingNs += rep.VirtualNs
	return rep, nil
}

// ActiveFunctionNames returns the names of the currently selected
// functions, sorted by packed ID; functions selected by static ID whose
// name never resolved appear as "id:N".
func (i *Instance) ActiveFunctionNames() []string {
	if i.rt == nil {
		return nil
	}
	funcs := i.rt.ActiveFuncs()
	names := make([]string, 0, len(funcs))
	for _, rf := range funcs {
		if rf.Name != "" {
			names = append(names, rf.Name)
		} else {
			names = append(names, fmt.Sprintf("id:%d", rf.PackedID))
		}
	}
	return names
}

// UnknownFunctionNames returns the subset of names that do not resolve to
// any patchable function of the live process — callers building an IC from
// a raw name list (the control plane's include path) use it to reject
// typos before a reconfiguration silently selects nothing. The resolution
// table is immutable after Start, so this is safe mid-phase.
func (i *Instance) UnknownFunctionNames(names []string) []string {
	var unknown []string
	for _, n := range names {
		if _, ok := i.ResolveFunctionName(n); !ok {
			unknown = append(unknown, n)
		}
	}
	return unknown
}

// InstanceStatus is a point-in-time snapshot of a live instance — what the
// control plane serves on GET /v1/status and exports as Prometheus gauges.
type InstanceStatus struct {
	// Backends is the attached set in delivery order. Ranks echoes the
	// start configuration; Adaptive tells whether the overhead-budget
	// controller is attached.
	Backends []string `json:"backends"`
	Ranks    int      `json:"ranks"`
	Adaptive bool     `json:"adaptive"`
	// Instrumented is false for the "xray inactive" baseline.
	Instrumented bool `json:"instrumented"`
	// Runs counts completed phases; Running tells whether one is executing.
	Runs    int  `json:"runs"`
	Running bool `json:"running"`
	// Events is the number of instrumentation events dispatched across all
	// completed phases.
	Events int64 `json:"events"`
	// ActiveFunctions is the current selection size; Patched the start-up
	// count; Reconfigs the applied live re-selections.
	ActiveFunctions int `json:"activeFunctions"`
	Patched         int `json:"patched"`
	Reconfigs       int `json:"reconfigs"`
	// InitSeconds is T_init; ReconfigSeconds the accumulated virtual cost
	// of all re-selections; PendingSeconds the set-up cost the next phase
	// will be billed.
	InitSeconds     float64 `json:"initSeconds"`
	ReconfigSeconds float64 `json:"reconfigSeconds"`
	PendingSeconds  float64 `json:"pendingSeconds"`
	// DroppedInFlight / DroppedUnpatched are the split drop counters;
	// SyntheticExits counts backend-closed dangling enters, with the
	// per-backend-name breakdown alongside.
	DroppedInFlight         int64            `json:"droppedInFlight"`
	DroppedUnpatched        int64            `json:"droppedUnpatched"`
	SyntheticExits          int64            `json:"syntheticExits"`
	SyntheticExitsByBackend map[string]int64 `json:"syntheticExitsByBackend,omitempty"`
	// Async reports whether the asynchronous event pipeline is attached;
	// PipelineDepth is the number of events currently queued in its rings,
	// DroppedAsync the enter/exit pairs rejected under back-pressure, and
	// AsyncBuf the effective per-rank ring capacity in events (the
	// configured -async-buf rounded up to a power of two; 0 when inline).
	Async         bool  `json:"async"`
	PipelineDepth int64 `json:"pipelineDepth"`
	DroppedAsync  int64 `json:"droppedAsync"`
	AsyncBuf      int   `json:"asyncBuf,omitempty"`
	// Sampling is the sampler's live view (policies + conservation
	// counters); nil when no sampling policy was ever installed.
	Sampling *SamplingSnapshot `json:"sampling,omitempty"`
	// DroppedPanicked counts the enters the panic barriers swallowed,
	// summed over every backend ever attached; Breaker is the per-backend
	// barrier state of every backend that ever panicked, and
	// DetachedBackends lists the backends the circuit breaker removed
	// from the live instance, in trip order.
	DroppedPanicked  int64           `json:"droppedPanicked"`
	Breaker          []BreakerStatus `json:"breaker,omitempty"`
	DetachedBackends []string        `json:"detachedBackends,omitempty"`
	// TTL is the ephemeral-probe scheduler's state: pending auto-reverts
	// and the scheduled/expired/canceled counters.
	TTL TTLStatus `json:"ttl"`
	// HTTP is the middleware's per-endpoint request/latency view; nil
	// until a request was observed. SLO is the adapt controller's SLO-mode
	// snapshot; nil in budget mode or on non-adaptive instances.
	HTTP *HTTPStatus `json:"http,omitempty"`
	SLO  *SLOStatus  `json:"slo,omitempty"`
}

// Status returns a consistent snapshot of the instance's live counters.
// Safe to call concurrently with Run and Reconfigure.
func (i *Instance) Status() InstanceStatus {
	st := InstanceStatus{
		Backends: i.Backends(),
		Ranks:    i.opts.Ranks,
		Adaptive: i.ctrl != nil,
	}
	i.mu.Lock()
	st.Runs = i.runs
	st.Running = i.running
	st.Events = i.events
	st.PendingSeconds = float64(i.pendingNs) / 1e9
	st.Breaker, st.DetachedBackends, st.DroppedPanicked = i.breakerSnapshotLocked()
	i.mu.Unlock()
	st.TTL = i.ttlStatus()
	if i.rt == nil {
		return st
	}
	snap := i.rt.Snapshot()
	st.Instrumented = true
	st.ActiveFunctions = snap.Active
	st.Patched = snap.Patched
	st.Reconfigs = snap.Reconfigs
	st.InitSeconds = float64(snap.InitVirtualNs) / 1e9
	st.ReconfigSeconds = float64(snap.ReconfigVirtualNs) / 1e9
	st.DroppedInFlight = snap.DroppedInFlight
	st.DroppedUnpatched = snap.DroppedUnpatched
	st.SyntheticExits = snap.SyntheticExits
	st.SyntheticExitsByBackend = snap.SyntheticExitsByBackend
	st.Async = snap.Async
	st.PipelineDepth = snap.AsyncDepth
	st.DroppedAsync = snap.DroppedAsync
	st.AsyncBuf = snap.AsyncBuf
	if snap.Sampling.Configured || snap.Sampling.Counters.Enters > 0 {
		sampling := snap.Sampling
		st.Sampling = &sampling
	}
	st.HTTP = i.httpSnapshot()
	if i.ctrl != nil {
		st.SLO = i.ctrl.SLOSnapshot()
	}
	return st
}

// DroppedAsync returns how many enter/exit pairs the async pipeline rejected
// under back-pressure (0 for inline or uninstrumented instances).
func (i *Instance) DroppedAsync() int64 {
	if i.rt == nil {
		return 0
	}
	return i.rt.DroppedAsync()
}

// DrainPipeline blocks until every event dispatched before the call has been
// delivered through the backend chain — what Run does automatically at phase
// end, exposed for mid-phase report consumers that want catch-up semantics.
// A no-op on inline or uninstrumented instances.
func (i *Instance) DrainPipeline() {
	if i.rt != nil {
		i.rt.DrainPipeline()
	}
}

// Close tears the instance's background machinery down: the TTL scheduler
// is stopped (pending reverts are dropped, not delivered), then the async
// pipeline is drained and its consumer pool stopped. Must not be called
// while a Run executes. A no-op for inline or uninstrumented instances;
// safe to call more than once.
func (i *Instance) Close() {
	i.ttlStop()
	if i.rt != nil {
		i.rt.Close()
	}
}

// Run executes one phase of the workload on the live instance. The first
// call pays the instrumentation start-up (T_init); later calls pay only the
// virtual cost of Reconfigure calls made since the previous phase — the
// instrumentation itself stays up between phases. Concurrent Run calls
// serialize; Reconfigure and the report accessors may land mid-phase.
func (i *Instance) Run() (*RunResult, error) {
	i.runMu.Lock()
	defer i.runMu.Unlock()

	i.mu.Lock()
	world := i.world
	i.world = nil
	if i.runs > 0 {
		// Wall-clock accounting restarts here so time the caller spent
		// between phases (inspecting results, selecting) is not billed to
		// the simulation.
		i.wallStart = time.Now()
	}
	if world == nil {
		// A later phase: fresh world (rank clocks restart at zero), fresh
		// per-phase measurement state in every attached backend, re-armed
		// adaptation controller. The instrumentation runtime and its patched
		// sleds stay up.
		var err error
		world, err = mpi.NewWorld(i.opts.Ranks, mpi.DefaultCostModel())
		if err != nil {
			i.mu.Unlock()
			return nil, err
		}
		for _, mb := range i.backends {
			if err := mb.StartPhase(world); err != nil {
				i.mu.Unlock()
				return nil, fmt.Errorf("capi: backend %q: %w", mb.Name(), err)
			}
		}
		if i.ctrl != nil {
			i.ctrl.NewPhase(i.opts.Ranks)
		}
	}
	i.curWorld = world
	i.running = true
	i.mu.Unlock()
	defer func() {
		i.mu.Lock()
		i.running = false
		i.mu.Unlock()
	}()

	// The engine executes without the instance lock held, so control-plane
	// calls (Reconfigure, Status, report scrapes) proceed while ranks run.
	eng, err := exec.New(exec.Config{
		Build:        i.s.build,
		Proc:         i.proc,
		XRay:         i.xr,
		World:        world,
		RankWorkSkew: i.s.opts.RankWorkSkew,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if i.rt != nil {
		// The engine has joined its rank goroutines. On an async run, drain
		// the pipeline first — events still queued in the rings have not
		// reached the backends yet, and capturing RunResult or backend
		// reports before they land would short-count the phase. Only then
		// publish the exact sampling counters — but only the world's:
		// HTTP worker ranks may still be dispatching request traffic, and
		// their slots are single-writer hot-path state (FlushSampling on
		// a serving instance is the caller's call, once traffic stops).
		i.rt.DrainPipeline()
		if i.opts.HTTPWorkers > 0 {
			i.rt.FlushSamplingRanks(i.opts.Ranks)
		} else {
			i.rt.FlushSampling()
		}
	}

	out := &RunResult{InitSeconds: -1}
	i.mu.Lock()
	if i.rt != nil {
		snap := i.rt.Snapshot()
		out.InitSeconds = float64(i.pendingNs) / 1e9
		out.Patched = snap.Patched
		out.ActiveFuncs = snap.Active
		out.Reconfigs = snap.Reconfigs
		if snap.Sampling.Configured || snap.Sampling.Counters.Enters > 0 {
			out.Sampling = &snap.Sampling
		}
		out.DroppedAsync = snap.DroppedAsync
	}
	for _, r := range world.Ranks() {
		if sec := r.Clock().Seconds(); sec > out.TotalSeconds {
			out.TotalSeconds = sec
		}
	}
	if out.InitSeconds > 0 {
		out.TotalSeconds += out.InitSeconds
	}
	out.Events = eng.TotalEvents()
	if i.ctrl != nil {
		out.DroppedFuncs = i.ctrl.Dropped()
		out.DemotedFuncs = i.ctrl.Demoted()
		out.AdaptEpochs = i.ctrl.Epochs()
	}
	backends := i.backends
	out.Breaker, out.DetachedBackends, out.DroppedPanicked = i.breakerSnapshotLocked()
	out.WallSeconds = time.Since(i.wallStart).Seconds()
	i.pendingNs = 0
	i.runs++
	i.events += out.Events
	i.mu.Unlock()
	// The backends' own reports lock internally; build them outside i.mu.
	// Each reports through its panic barrier, so a panicking Report degrades
	// to an absent envelope entry instead of unwinding the phase.
	out.Reports = map[string]Report{}
	for _, mb := range backends {
		out.Backends = append(out.Backends, mb.Name())
		if rep := mb.Report(); rep != nil {
			out.Reports[mb.Name()] = rep
		}
	}
	return out, nil
}

// Run executes the session's build with the selection patched in at
// start-up, under the chosen measurement backend. A nil selection with
// RunOptions.PatchAll false runs with inactive sleds (the "xray inactive"
// baseline). It is Start followed by one Instance.Run.
func (s *Session) Run(sel *Selection, opts RunOptions) (*RunResult, error) {
	inst, err := s.Start(sel, opts)
	if err != nil {
		return nil, err
	}
	return inst.Run()
}

// RunVanilla executes the uninstrumented build (no sleds at all) under the
// session's RankWorkSkew and returns the virtual runtime — the Table II
// baseline. The vanilla build is compiled on first use and kept;
// concurrent callers share it, and its error if it failed.
func (s *Session) RunVanilla(ranks int) (float64, error) {
	s.vanillaOnce.Do(func() {
		s.vanilla, s.vanillaErr = compiler.CompileValidated(s.prog, compiler.Options{OptLevel: s.opts.OptLevel})
	})
	if s.vanillaErr != nil {
		return 0, s.vanillaErr
	}
	if ranks <= 0 {
		ranks = 4
	}
	return workload.RunVanilla(s.vanilla, ranks, s.opts.RankWorkSkew)
}

// RecompileSeconds returns the modelled wall-clock cost of a full rebuild —
// what every IC adjustment costs under the *static* workflow the paper
// replaces (§VII-A; ~50 minutes for full-scale OpenFOAM).
func (s *Session) RecompileSeconds() float64 { return s.build.CompileSeconds }
