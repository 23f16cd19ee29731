// Package lint is capi's static-analysis suite: four custom analyzers that
// mechanically enforce the invariants the dispatch hot path and the
// concurrency design rest on — invariants PRs 1–5 protected only with
// -race stress tests, which catch violations probabilistically at runtime.
// The analyzers catch them at lint time, on every build:
//
//	hotpath      functions annotated //capi:hotpath — the XRay handler,
//	             the sampler decision path, the trace ring append, the mux
//	             fan-out, the panic guard, the adapt controller's event
//	             observer — and their transitive in-module callees must not
//	             allocate (make/new, growing append, map writes, closures,
//	             interface boxing, string building), hash (map reads,
//	             range over a map — the dispatch path indexes dense
//	             tables), take locks, spawn goroutines, touch channels, or
//	             call into stdlib packages that may allocate or block.
//	             Deliberate out-of-line slow
//	             paths are annotated //capi:coldpath (the traversal stops
//	             there); single reviewed operations carry a
//	             //capi:hotpath-ok <reason> line comment. The analyzer
//	             also refuses handler registration (SetHandler) of any
//	             function that is not annotated, so deleting a
//	             //capi:hotpath annotation from the dispatch path is
//	             itself a lint error.
//
//	atomicfield  no code calls a sync/atomic package function
//	             (atomic.LoadInt64(&s.f), …): atomic state is a typed
//	             atomic (atomic.Int64, atomic.Pointer[T], …), which cannot
//	             be read or written plainly, so the mixed-access bug class
//	             the -race stress tests hunt at runtime cannot be written.
//
//	guardedby    fields annotated //capi:guardedby <mu> must only be
//	             accessed in functions that lock the named sibling mutex
//	             (flow-insensitive, same-function approximation).
//	             Functions running with the lock already held by their
//	             caller are annotated //capi:locked <mu>; reviewed
//	             pre-publication accesses carry //capi:unguarded-ok
//	             <reason>.
//
//	noexit       library packages (everything outside cmd/ and the
//	             examples) must not call os.Exit or log.Fatal*, and must
//	             not use bare panic on event-delivery paths — a measurement
//	             probe must degrade, never take the host process down.
//	             Registration-time and generator-time assertions carry
//	             //capi:panic-ok <reason>.
//
// The suite mirrors the golang.org/x/tools go/analysis architecture
// (Analyzer, Pass, analysistest-style fixtures under testdata/) but is
// built on the standard library alone: packages are enumerated with
// `go list -export -deps -json` and type-checked with go/types against the
// toolchain's export data, so the module needs no external dependency and
// the whole-module view lets hotpath reason across package boundaries —
// something per-package vet units cannot.
//
// Run it locally with
//
//	go run ./cmd/capi-lint ./...
//
// CI builds cmd/capi-lint once (cached by the Go build cache) and runs it
// as a required job; internal/lint's own tests replay every analyzer over
// fixture packages and assert the real repository lints clean.
package lint
