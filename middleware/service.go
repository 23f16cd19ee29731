package middleware

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"capi"
	"capi/internal/prog"
)

// A step is one flattened instruction of an endpoint's request script.
// Scripts are compiled once per route and shared read-only by all
// workers.
type step struct {
	kind stepKind
	ns   int64 // stepWork: unscaled self time
	id   int32 // stepEnter/stepExit: packed function ID
	slot int   // stepEnter/stepExit: scratch index pairing exit to enter
}

type stepKind uint8

const (
	stepWork stepKind = iota
	stepEnter
	stepExit
)

// route is one compiled endpoint.
type route struct {
	ep      capi.WebEndpoint
	steps   []step
	slots   int     // enter steps in the script (scratch size)
	pairs   int     // instrumented enter/exit pairs per request
	baseNs  int64   // sum of unscaled work steps
	funcIDs []int32 // unique instrumented IDs, sorted
}

// worker is one checked-out request context plus its request-local
// state. Exactly one request uses a worker at a time (checkout pool), so
// none of this needs locking.
type worker struct {
	rc      *capi.RequestContext
	rng     *rand.Rand
	scratch []bool // indexed by step.slot; balanced scripts leave it all-false
}

// Service serves a synthetic webservice program over HTTP: each request
// executes the endpoint handler's full call tree on the worker's virtual
// clock, dispatching enter/exit events for every currently-instrumented
// function. Inline backends charge their per-event costs (trace writes,
// flush stalls) to the same clock, so request latency is work plus real
// instrumentation cost and narrowing the selection visibly improves the
// measured tail; with the async pipeline the request path pays nothing.
type Service struct {
	inst   *capi.Instance
	pool   chan *worker
	routes map[string]*route
	mux    *http.ServeMux
}

// New compiles every endpoint's handler tree from the program, registers
// the endpoints with the instance, and checks out the worker pool. The
// program must define each endpoint's Handler function (capi.Webservice
// does for capi.WebserviceEndpoints).
func New(inst *capi.Instance, p *capi.Program, endpoints []capi.WebEndpoint, opts Options) (*Service, error) {
	opts.fill()
	rcs, err := inst.NewRequestContexts(opts.Workers)
	if err != nil {
		return nil, err
	}
	s := &Service{
		inst:   inst,
		pool:   make(chan *worker, opts.Workers),
		routes: make(map[string]*route, len(endpoints)),
		mux:    http.NewServeMux(),
	}
	maxSlots := 0
	for _, ep := range endpoints {
		rt, err := compileRoute(inst, p, ep)
		if err != nil {
			return nil, err
		}
		s.routes[ep.Route] = rt
		if rt.slots > maxSlots {
			maxSlots = rt.slots
		}
		inst.RegisterHTTPEndpoint(ep.Route, rt.funcIDs)
		s.mux.HandleFunc(ep.Route, func(w http.ResponseWriter, r *http.Request) {
			s.serveRoute(rt, w)
		})
	}
	for k, rc := range rcs {
		s.pool <- &worker{
			rc:      rc,
			rng:     rand.New(rand.NewSource(opts.Seed + int64(k))),
			scratch: make([]bool, maxSlots),
		}
	}
	return s, nil
}

// compileRoute flattens the handler's op tree into a linear script:
// Work ops become scaled clock advances, direct calls recurse (count
// times), and every function resolvable in the instrumented set gets an
// enter/exit step pair around its body. Exit steps reference the enter's
// scratch slot so a function deselected mid-request never dispatches an
// exit whose enter was skipped.
func compileRoute(inst *capi.Instance, p *capi.Program, ep capi.WebEndpoint) (*route, error) {
	rt := &route{ep: ep}
	ids := map[int32]bool{}
	var visit func(name string) error
	visit = func(name string) error {
		fn := p.Func(name)
		if fn == nil {
			return fmt.Errorf("middleware: endpoint %q handler tree references undefined function %q", ep.Route, name)
		}
		id, instrumented := inst.ResolveFunctionName(name)
		slot := -1
		if instrumented {
			slot = rt.slots
			rt.slots++
			rt.pairs++
			ids[id] = true
			rt.steps = append(rt.steps, step{kind: stepEnter, id: id, slot: slot})
		}
		for _, op := range fn.Ops {
			switch op.Kind {
			case prog.OpWork:
				rt.steps = append(rt.steps, step{kind: stepWork, ns: op.Work})
				rt.baseNs += op.Work
			case prog.OpCall:
				if op.Virtual || op.ViaPointer {
					continue // webservice handler trees are direct-call only
				}
				for k := 0; k < op.Count; k++ {
					if err := visit(op.Callee); err != nil {
						return err
					}
				}
			}
		}
		if instrumented {
			rt.steps = append(rt.steps, step{kind: stepExit, id: id, slot: slot})
		}
		return nil
	}
	if err := visit(ep.Handler); err != nil {
		return nil, err
	}
	for id := range ids {
		rt.funcIDs = append(rt.funcIDs, id)
	}
	sort.Slice(rt.funcIDs, func(a, b int) bool { return rt.funcIDs[a] < rt.funcIDs[b] })
	return rt, nil
}

// ServeHTTP dispatches to the compiled route scripts.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// serveRoute runs one scripted request and reports the virtual latency.
func (s *Service) serveRoute(rt *route, w http.ResponseWriter) {
	lat := s.run(rt)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"endpoint\":%q,\"latencyMs\":%.3f}\n", rt.ep.Route, float64(lat)/1e6)
}

// Do executes one scripted request against the route without the HTTP
// plumbing and returns its virtual latency — the benchmark entry point.
func (s *Service) Do(routeName string) (int64, error) {
	rt := s.routes[routeName]
	if rt == nil {
		return 0, fmt.Errorf("middleware: unknown route %q", routeName)
	}
	return s.run(rt), nil
}

// run executes one scripted request. Not a //capi:hotpath: the worker
// checkout deliberately blocks to bound dispatch concurrency at the pool
// size — the hot-path contract applies to the dispatch inside
// RequestContext.Enter/Exit, not to the request framing around it.
func (s *Service) run(rt *route) int64 {
	wk := <-s.pool
	mult := wk.multiplier(rt.ep)
	rc := wk.rc
	start := rc.Now()
	for _, st := range rt.steps {
		switch st.kind {
		case stepWork:
			rc.Advance(int64(float64(st.ns) * mult))
		case stepEnter:
			if s.inst.FunctionActive(st.id) {
				rc.Enter(st.id)
				wk.scratch[st.slot] = true
			}
		case stepExit:
			if wk.scratch[st.slot] {
				wk.scratch[st.slot] = false
				rc.Exit(st.id)
			}
		}
	}
	lat := rc.Now() - start
	s.inst.ObserveHTTPRequest(rt.ep.Route, lat)
	s.pool <- wk
	return lat
}

// maxMultiplier caps the lognormal work multiplier so the synthetic tail
// stays bounded (test determinism).
const maxMultiplier = 3.5

// multiplier draws the request's lognormal work multiplier: median
// exp(LatMu) with spread LatSigma, clamped at maxMultiplier.
func (wk *worker) multiplier(ep capi.WebEndpoint) float64 {
	m := math.Exp(ep.LatMu + ep.LatSigma*wk.rng.NormFloat64())
	if m > maxMultiplier {
		m = maxMultiplier
	}
	return m
}

// EventPairs returns how many instrumented enter/exit pairs one request
// to the route dispatches at full selection — the divisor benchmarks use
// to express request cost per event.
func (s *Service) EventPairs(routeName string) int {
	if rt := s.routes[routeName]; rt != nil {
		return rt.pairs
	}
	return 0
}

// BaseWorkNs returns the route's unscaled self-time sum: the request
// latency floor with instrumentation fully deselected and multiplier 1.
func (s *Service) BaseWorkNs(routeName string) int64 {
	if rt := s.routes[routeName]; rt != nil {
		return rt.baseNs
	}
	return 0
}

// RandomRoute picks a route weighted by the endpoint mix, for load
// generators.
func (s *Service) RandomRoute(rng *rand.Rand) string {
	total := 0
	for _, rt := range s.routes {
		total += rt.ep.Weight
	}
	if total <= 0 {
		return ""
	}
	// Deterministic iteration order for a given seed.
	names := make([]string, 0, len(s.routes))
	for name := range s.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	n := rng.Intn(total)
	for _, name := range names {
		if n -= s.routes[name].ep.Weight; n < 0 {
			return name
		}
	}
	return names[len(names)-1]
}
