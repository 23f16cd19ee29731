package capi

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"capi/internal/dyncapi"
	"capi/internal/mpi"
	"capi/internal/obj"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/xray"
)

// The measurement-backend extension point. The paper's architecture (§V-C)
// decouples the instrumentation layer from the measurement system behind a
// generic enter/exit interface; this file makes that decoupling a public,
// *open* API: backends are named entries in a registry, RunOptions selects
// them by name (one or several — a fan-out mux feeds every event to each),
// and every backend reports through the same self-describing envelope.

// Aliases so backend implementations outside this package can name the
// event-layer types without importing internal packages.
type (
	// ThreadCtx is the executing context an event carries (rank + clock).
	ThreadCtx = xray.ThreadCtx
	// ResolvedFunc is one instrumentable function as the runtime sees it.
	ResolvedFunc = dyncapi.ResolvedFunc
	// EventBackend is the event half of a MeasurementBackend, what the
	// DynCaPI handler dispatches into: Name, OnEnter, OnExit, InitCost.
	// A backend may additionally implement OnDeselect(*ResolvedFunc) int
	// to close dangling state on live deselection.
	EventBackend = dyncapi.Backend
	// MeasurementBackend is one measurement system attached to a live
	// instance: EventBackend plus StartPhase(*World) error and Report()
	// Report. Name must return the registry name the backend was created
	// under. StartPhase attaches fresh per-phase state (world is the new
	// phase's MPI world, rank clocks restarted at zero); Report returns the
	// current report, or nil when there is none, and must be safe to call
	// while a phase executes.
	MeasurementBackend = dyncapi.MeasurementBackend
	// World is the simulated MPI world of one execution phase.
	World = mpi.World
	// Process is the loaded process image of a started instance.
	Process = obj.Process
	// BackendSwapReport summarizes one live backend-set swap.
	BackendSwapReport = dyncapi.BackendSwapReport
	// Report is the unified measurement-report envelope: every backend's
	// end-of-run (or mid-phase) report self-describes with a kind tag
	// (Kind) and marshals itself to JSON, so consumers — Instance.Reports,
	// the control plane's GET /v1/report — can carry reports of backends
	// they have never heard of.
	Report = dyncapi.Envelope
	// JSONReport wraps any JSON-marshallable value as a Report. Custom
	// backends can use it instead of hand-writing an envelope type.
	JSONReport = dyncapi.JSONReport
)

// ReportOf is the typed read of the report envelope: the named backend's
// report as a T, e.g. ReportOf[*TALPReport](res.Reports, "talp"). It looks
// through a JSONReport to its Value; false when the backend filed no report
// or the report is not a T.
func ReportOf[T any](reports map[string]Report, backend string) (T, bool) {
	rep := reports[backend]
	if jr, ok := rep.(JSONReport); ok {
		v, ok := jr.Value.(T)
		return v, ok
	}
	v, ok := rep.(T)
	return v, ok
}

// BackendConfig is everything a backend factory gets to build one backend
// instance for a starting (or live) run.
type BackendConfig struct {
	// Ranks is how many dispatch ranks per-rank state must cover: the MPI
	// world plus the HTTP middleware's worker ranks.
	Ranks int
	// Proc is the loaded process image, for address→symbol resolution.
	Proc *Process
	// World is the MPI world current at build time. Every later phase
	// delivers a fresh world through MeasurementBackend.StartPhase.
	World *World
	// EmulateTALPBug enables TALP's re-entry bug compat mode (§VI-B(b)).
	EmulateTALPBug bool
	// Trace tunes trace-style backends (ring size, retention, wrap); nil
	// uses defaults. Shard over Ranks above, not over its Ranks field.
	Trace *TraceOptions
}

// BackendFactory builds one MeasurementBackend instance for a run.
type BackendFactory func(cfg BackendConfig) (MeasurementBackend, error)

var (
	backendMu       sync.RWMutex
	backendRegistry = map[string]BackendFactory{}
)

// RegisterBackend adds a measurement backend to the registry under the given
// name, making it selectable via RunOptions.Backends (and every -backend
// flag that resolves through the registry). It panics on an empty name, a
// nil factory or a duplicate registration — registration happens in init
// functions, where a panic is a build-time mistake, not a runtime condition.
func RegisterBackend(name string, factory BackendFactory) {
	if name == "" {
		//capi:panic-ok registration runs in init functions; a bad name is a build-time mistake
		panic("capi: RegisterBackend with empty name")
	}
	if strings.ContainsAny(name, ", ") {
		//capi:panic-ok registration runs in init functions; a bad name is a build-time mistake
		panic(fmt.Sprintf("capi: RegisterBackend name %q must not contain commas or spaces", name))
	}
	if factory == nil {
		//capi:panic-ok registration runs in init functions; a nil factory is a build-time mistake
		panic(fmt.Sprintf("capi: RegisterBackend %q with nil factory", name))
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendRegistry[name]; dup {
		//capi:panic-ok registration runs in init functions; a duplicate name is a build-time mistake
		panic(fmt.Sprintf("capi: backend %q registered twice", name))
	}
	backendRegistry[name] = factory
}

// RegisteredBackends returns the names of every registered measurement
// backend, sorted.
func RegisteredBackends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func backendFactory(name string) (BackendFactory, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	f, ok := backendRegistry[name]
	return f, ok
}

// unknownBackendError is the shared fail-fast error for unregistered
// backend names: it lists what *is* registered so a typo'd -backend flag is
// a one-round-trip fix.
func unknownBackendError(name string) error {
	return fmt.Errorf("capi: unknown backend %q (registered: %s)",
		name, strings.Join(RegisteredBackends(), ", "))
}

// validateBackends checks every name against the registry and rejects
// duplicates (reports are keyed by name). An empty list is valid: Start
// reads it as {"none"}.
func validateBackends(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if _, ok := backendFactory(name); !ok {
			return unknownBackendError(name)
		}
		if seen[name] {
			return fmt.Errorf("capi: backend %q listed twice", name)
		}
		seen[name] = true
	}
	return nil
}

// ParseBackends splits a comma-separated backend list ("talp,extrae") and
// validates every name against the registry, failing fast with the list of
// registered names on an unknown one. It parses the -backend flag of
// capi run and capi serve.
func ParseBackends(list string) ([]string, error) {
	var names []string
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		names = append(names, part)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("capi: empty backend list (registered: %s)",
			strings.Join(RegisteredBackends(), ", "))
	}
	if err := validateBackends(names); err != nil {
		return nil, err
	}
	return names, nil
}

// buildBackends resolves names through the registry and builds one
// MeasurementBackend per name for this instance, each behind its panic
// barrier (registry backends are untrusted code running inside the host's
// dispatch path). Per-rank backend state (scorep, extrae) is sized to cover
// the middleware's worker ranks too: they dispatch past the MPI world.
func (i *Instance) buildBackends(names []string, world *mpi.World) ([]*dyncapi.Guard, error) {
	if err := validateBackends(names); err != nil {
		return nil, err
	}
	cfg := BackendConfig{
		Ranks:          i.opts.Ranks + i.opts.HTTPWorkers,
		Proc:           i.proc,
		World:          world,
		EmulateTALPBug: i.opts.EmulateTALPBug,
		Trace:          i.opts.Trace,
	}
	gopts := dyncapi.GuardOptions{PanicLimit: i.opts.PanicLimit, OnTrip: i.onBreakerTrip}
	guards := make([]*dyncapi.Guard, 0, len(names))
	for _, name := range names {
		factory, _ := backendFactory(name)
		mb, err := factory(cfg)
		if err != nil {
			return nil, fmt.Errorf("capi: building backend %q: %w", name, err)
		}
		if mb == nil {
			return nil, fmt.Errorf("capi: backend %q factory returned no backend", name)
		}
		guards = append(guards, dyncapi.NewGuard(mb, gopts))
	}
	return guards, nil
}

// chain wires the event path every instance uses — at Start and on
// SetBackends: the guarded backends in delivery order, then the adaptation
// controller, which observes what the backends have already seen. A single
// element is its own chain; several share a Mux.
func (i *Instance) chain(guards []*dyncapi.Guard) dyncapi.Backend {
	sinks := make([]dyncapi.Backend, 0, len(guards)+1)
	for _, g := range guards {
		sinks = append(sinks, g)
	}
	if i.ctrl != nil {
		sinks = append(sinks, i.ctrl)
	}
	if len(sinks) == 1 {
		return sinks[0]
	}
	return dyncapi.NewMux(sinks...)
}

// The four built-in backends self-register, exactly like a third-party
// backend would. Each is one dyncapi type, events and phase lifecycle in
// one: "none" is the discarding cyg-profile interface, and TALP, Score-P
// and Extrae rebuild their measurement per phase.
func init() {
	RegisterBackend(string(BackendNone), func(BackendConfig) (MeasurementBackend, error) {
		return &dyncapi.CygBackend{}, nil
	})
	RegisterBackend(string(BackendTALP), func(cfg BackendConfig) (MeasurementBackend, error) {
		return dyncapi.NewTALPBackend(talp.New(cfg.World, talp.Options{EmulateReentryBug: cfg.EmulateTALPBug})), nil
	})
	RegisterBackend(string(BackendScoreP), func(cfg BackendConfig) (MeasurementBackend, error) {
		m, err := scorep.New(scorep.Options{Ranks: cfg.Ranks})
		if err != nil {
			return nil, err
		}
		return dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(cfg.Proc)), nil
	})
	RegisterBackend(string(BackendExtrae), func(cfg BackendConfig) (MeasurementBackend, error) {
		opts := trace.Options{}
		if cfg.Trace != nil {
			opts = *cfg.Trace
		}
		opts.Ranks = cfg.Ranks
		buf, err := trace.New(opts)
		if err != nil {
			return nil, err
		}
		return dyncapi.NewExtraeBackend(buf), nil
	})
}
