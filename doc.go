// Package capi is a from-scratch Go reproduction of "Runtime-Adaptable
// Selective Performance Instrumentation" (Kreutzer, Iwainsky,
// Garcia-Gasulla, Lopez, Bischof; IPPS/IPDPS-W 2023, arXiv:2303.11110): the
// CaPI compiler-assisted instrumentation-selection tool together with every
// substrate its evaluation depends on.
//
// The paper's system selects which functions of a large HPC application to
// instrument by evaluating a user-defined selector pipeline over a
// whole-program call graph, and — the paper's core contribution — applies
// that selection at program start by patching XRay NOP sleds instead of
// recompiling, including inside dynamic shared objects (DSOs). Measurement
// flows to Score-P (fine-grained profiles), TALP (POP parallel-efficiency
// metrics per region) or an Extrae-style event tracer (per-rank sharded
// trace buffers with a merged timeline).
//
// # Architecture (paper Fig. 2/3)
//
//	prog      synthetic program model (stand-in for C++ sources)
//	metacg    whole-program call-graph construction
//	spec      the CaPI selection DSL        ─┐
//	selector  selector implementations       ├─ "Selection"
//	core      pipeline engine + post-passes ─┘
//	ic        instrumentation configuration (IC) files; a Config is
//	          immutable once built and may be shared between goroutines
//	compiler  Clang/-fxray-instrument model: inlining, symbols, sleds
//	obj/mem   object images, dynamic loader, page protection
//	xray      sled patching runtime with packed DSO/function IDs (Fig. 4)
//	dyncapi   the DynCaPI runtime: ID resolution, patching, event bridge
//	          (one handler, inline and async: it indexes a per-object
//	          dense table of slots by function ID and reads the slot's
//	          atomic state word — active, deselected by the latest
//	          re-selection, or unpatched — so a lookup or a miss is two
//	          bounds checks and one load, never a hash),
//	          live re-selection (Reconfigure: delta re-patch in place —
//	          an IC is looked up through a name index built at start-up,
//	          the delta is a merge of two ID-sorted selections, and only
//	          the delta's state words are flipped, before the sleds),
//	          multi-backend fan-out (Mux: every event to N backends, with
//	          per-backend synthetic-exit delivery), live backend swaps,
//	          and the sampling/suppression stage (sampler.go): per-function
//	          1-in-N stride sampling, predictive min-duration suppression
//	          with exact drop accounting, and redundancy collapse of
//	          repeated identical short calls — policies published
//	          atomically, rates changeable mid-run without locking the
//	          hot path (SetSampling / SetFuncSampling), and the async
//	          event pipeline (pipeline.go): per-rank bounded single-writer
//	          rings lift the backend chain off the dispatch hot path, a
//	          consumer pool replays events under pinned clocks, drain
//	          barriers keep phase results and synthetic-exit ordering
//	          exact, back-pressure drops whole pairs (DroppedAsync),
//	          and the panic barrier (guard.go): every call into a
//	          backend, events and phase lifecycle alike, runs behind one
//	          Guard, a recover with a per-backend circuit
//	          breaker — a tripped backend is auto-detached, and its open
//	          breaker, left in the chain, keeps drop accounting
//	          (DroppedPanicked) exact for the rest of the run
//	capi      backend registry (RegisterBackend / RunOptions.Backends):
//	          named factories behind the public MeasurementBackend
//	          interface (events plus phase lifecycle, one face); the
//	          none, TALP, Score-P and Extrae built-ins are each one
//	          dyncapi type;
//	          one report envelope (Instance.Reports, ReportOf)
//	adapt     overhead-budget controller: adapts the selection at MPI
//	          collectives while the program runs — hottest low-duration
//	          functions first demoted to 1-in-N sampling (the gentler
//	          knob; no re-patch), then deselected if still over budget,
//	          re-promoted with hysteresis when pressure subsides; its SLO
//	          mode (slo.go) instead targets a per-endpoint tail-latency
//	          bound for serving workloads — narrow each violating
//	          endpoint's instrumentation (same ladder, scoped to the
//	          endpoint's functions) until the observed p99 meets the
//	          target, widen back when latency recovers headroom, with a
//	          per-endpoint doubling backoff so endpoints sharing
//	          functions cannot ping-pong a shared subtree
//	mpi       simulated MPI with PMPI interception
//	scorep    Score-P measurement substrate
//	talp/pop  TALP regions + POP efficiency metrics
//	trace     Extrae-style event tracing: per-rank sharded ring buffers,
//	          batched segment flush, merged virtual-time timeline
//	exec      deterministic virtual-time execution engine
//	workload  LULESH / OpenFOAM-icoFoam workload generators, plus the
//	          request-serving webservice workload (feed/user/order/search/
//	          asset/health routes over a shared helper layer) whose
//	          endpoints the SLO mode adapts
//	middleware net/http integration (package capi/middleware): Tap wraps
//	          any http.Handler with one enter/exit dispatch per request;
//	          Service executes a webservice endpoint's full call tree per
//	          request on a per-worker virtual clock — inline backends
//	          charge their event costs to the same clock, so narrowing
//	          visibly improves the measured tail — with request contexts
//	          drawn from the instance's HTTP worker pool
//	          (RunOptions.HTTPWorkers: dedicated ranks past the MPI world)
//	ctl       HTTP/JSON control plane over a live instance: remote
//	          re-selection (optionally TTL'd: ephemeral probes that
//	          auto-revert), phase execution, report scrapes, /metrics
//	          rendered from the /v1/status document, SSE reconfigure/
//	          expired/breaker events (served by capi serve)
//	fleet     federated control plane over many capi serve members
//	          (capi fleet): registration with heartbeat-TTL eviction,
//	          cluster-wide fan-out of select/sampling/adapt with
//	          partial-failure accounting (all-or-report-divergence),
//	          merged status/report — fleet-wide POP metrics re-derived
//	          from concatenated per-member rank times — a unified /metrics
//	          rendered from the members' status (member="…" first), and a
//	          multiplexed SSE feed tailing every member's event stream
//	lint      stdlib-only static-analysis suite enforcing the //capi:
//	          source annotations: hotpath (dispatch path must not
//	          allocate/lock/block/hash), atomicfield (no mixed atomic/plain
//	          access), guardedby (mutex discipline), noexit (library code
//	          never aborts the process) — run by capi-lint as a
//	          required CI gate
//
// # The Fig. 1 loop
//
// NewSession prepares an application in three stages: validate once, then
// the call graph (one pass into an immutable graph of 80-byte nodes, with no
// name index) beside the XRay compile.
// The user then iterates: Select (a spec into an IC), Run (patch at start-up,
// measure), inspect, adjust the spec — no recompilation between:
//
//	app := capi.Lulesh(capi.LuleshOptions{})
//	s, _ := capi.NewSession(app, capi.SessionOptions{OptLevel: 3})
//	sel, _ := s.Select(`!import("mpi.capi")
//	excluded = join(inSystemHeader(%%), inlineSpecified(%%))
//	subtract(%mpi_comm, %excluded)`)
//	res, _ := s.Run(sel, capi.RunOptions{Backends: []string{"scorep"}, Ranks: 4})
//	profile, _ := capi.ReportOf[*capi.Profile](res.Reports, "scorep")
//	profile.WriteText(os.Stdout)
//
// # Live re-selection
//
// The loop also runs without leaving the process: Start returns a live
// Instance whose selection can be changed in place — Reconfigure diffs the
// patched set against the new IC and re-patches only the delta, under
// page-coalesced mprotect windows. RunOptions.Adapt goes further and lets
// an overhead-budget controller (internal/adapt) narrow the selection
// automatically at MPI collectives while the workload runs:
//
//	inst, _ := s.Start(sel, capi.RunOptions{Backends: []string{"talp"}})
//	res1, _ := inst.Run()               // pays T_init once
//	sel2, _ := s.Select(refinedSpec)
//	inst.Reconfigure(sel2)              // delta re-patch, runtime stays up
//	res2, _ := inst.Run()               // pays only the re-patch
//
// A rank caught inside a deselected function can never fire its exit
// event; Reconfigure delivers synthetic exits through the backend's
// Deselector hook so Score-P closes the dangling region and TALP balances
// the start (ReconfigReport.SyntheticExits counts them, broken down per
// backend in SyntheticExitsByBackend), and the runtime's split drop
// counters (in-flight vs. spurious) let trace completeness be asserted
// exactly.
//
// A budget-mode epoch closes at the first MPI collective at least
// AdaptOptions.Epoch after the previous one: the last rank to arrive sums
// every rank's own event row while the others wait there, decides, and
// every rank pays the re-patch as it leaves. So the decisions depend on the
// program and the world size alone, at any rank count.
//
// # Measurement backends: an open registry
//
// Backends are named entries in a package-level registry. The four
// built-ins (none, talp, scorep, extrae) self-register; a custom backend
// is one type implementing MeasurementBackend — the EventBackend methods
// the handler dispatches into, plus StartPhase and a self-describing
// Report — whose Name is its registry name, and registers a factory:
//
//	capi.RegisterBackend("mytool", func(cfg capi.BackendConfig) (capi.MeasurementBackend, error) { … })
//
// RunOptions.Backends selects any set by name; with several, a mux fans
// every enter/exit event out to all of them, so one run records TALP
// efficiency and an Extrae trace from the same event stream:
//
//	res, _ := s.Run(sel, capi.RunOptions{Backends: []string{"talp", "extrae"}})
//	res.Reports["talp"]   // kind "talp"  — POP efficiency regions
//	res.Reports["extrae"] // kind "trace" — merged timeline
//
// Instance.SetBackends swaps the attached set mid-run (detaching backends
// close their open state with synthetic exits); POST /v1/select takes the
// same swap as a "backends" list, and GET /v1/report serves the envelope.
//
// # Sampling and redundancy suppression
//
// Between full instrumentation and deselection sits a middle tier: the
// hook stays patched but the sampler thins the stream before it reaches
// the backend chain. RunOptions.Sampling installs the initial table,
// Instance.SetSampling replaces it on a live run (policies publish
// atomically; open pairs finish under their recorded decisions, so
// delivery stays balanced across rate changes):
//
//	inst, _ := s.Start(sel, capi.RunOptions{
//		Backends: []string{"talp"},
//		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 64}},
//	})
//
// The conservation counters reconcile exactly at phase end —
// enters == delivered + sampledEvents + suppressedPairs + collapsedCalls —
// and surface in RunResult.Sampling, Instance.Status, ReconfigReport, the
// /v1/report envelope and as Prometheus counters; POST /v1/sampling
// changes the table remotely. The adapt controller uses the same
// mechanism as its demote ladder.
//
// A table costs only the functions it samples: only a function with its
// own policy, or firing under a default that samples or suppresses, gets
// sampler state (its stride phase starts there). The counters are one
// account per rank and lag by at most 64 enters per rank mid-phase.
//
// # Ephemeral probes and the panic barrier
//
// Instance.ReconfigureTTL and Instance.SetSamplingTTL install an override
// that auto-reverts to the last explicit state when the TTL expires — the
// revert is an ordinary Reconfigure/SetSampling delivered by the pending
// revert's own time.AfterFunc timer. Explicit calls cancel pending
// reverts; overlapping TTLs keep the original base. Over
// HTTP the same thing is a "ttl" field on POST /v1/select and
// /v1/sampling, with the expiry streamed as an SSE "expired" event.
//
// Every call into a measurement backend — events, synthetic exits, symbol
// injection, StartPhase, Report — runs behind its one recover barrier
// with a per-backend circuit breaker (RunOptions.PanicLimit): a backend
// that keeps panicking is auto-detached mid-phase — its tripped guard
// stays in the chain and counts what it no longer delivers, so the
// conservation identity gains exactly one term
// (enters == delivered + sampledEvents + suppressedPairs + collapsedCalls
// + droppedAsync + droppedPanicked) and stays exact — while the host
// phase always runs to completion.
//
// # Remote control plane
//
// An Instance is safe for concurrent control calls against an executing
// phase, which lets the selection be driven from *outside* the process:
// capi serve (cmd/capi) mounts internal/ctl over a live instance and serves
// status, the current selection, live re-selection (POST a spec, get the
// ReconfigReport), phase execution, measurement reports, adaptive-controller
// retuning, Prometheus metrics and an SSE stream of reconfigure events.
// Instance.Status returns the consistent snapshot those endpoints expose;
// /metrics is that snapshot rendered as series.
//
// Above the single process sits the federated control plane: capi fleet
// (internal/fleet) aggregates many capi serve members — capi serve -fleet
// self-registers and heartbeats — fanning control mutations out
// cluster-wide with explicit partial-failure reporting and merging the
// members' status, reports (fleet-wide POP efficiency over the union of
// all ranks), metrics and event streams into one coordinator surface.
//
// Everything is deterministic: workloads are generated from fixed seeds and
// time is virtual, so measurements are reproducible bit-for-bit.
package capi
