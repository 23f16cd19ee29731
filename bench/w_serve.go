package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	capi "capi"
	"capi/middleware"
)

// Sizing of serve_http.
const (
	// serveWorkers is one more than the connections, so that which two
	// request contexts are in use rotates over all three pairs: two contexts
	// allocated side by side share a cache line half the time (see
	// distinctLines), and with exactly two workers that coin toss moved
	// throughput between 20k and 33k req/s from one process to the next.
	serveWorkers   = 3
	serveRoutes    = 1 << 14 // length of the seeded route sequence (cycled)
	closedRequests = 2000    // requests of one closed-loop trial: twenty beyond its p99
	doRequests     = 2000    // requests of one in-process Service.Do trial
	openRequests   = 1000    // requests of one open-loop trial: ten beyond its p99
	openTrials     = 3       // open-loop trials per rate (reported only, see noise.md)
	p99LimitUs     = 2000    // latency limit behind serve.max_rate_in_limit
)

// openRates are the fixed rates of the open-loop report, in req/s.
var openRates = []int{1000, 2000, 4000}

// call is one generated request.
type call struct {
	route  string // mux pattern, which the response body must name
	method string
	path   string
}

type serveRig struct {
	inst  *capi.Instance
	svc   *middleware.Service
	srv   *http.Server
	done  chan struct{} // closed when Serve has returned
	calls []call
	conns []*rawConn
	pairs map[string]int64 // enter/exit pairs one request of a route dispatches

	next    int   // cursor into calls: requests handed to a connection or to Do, all stages
	offered int64 // enters those requests dispatch
	failed  atomic.Int64
}

func setupServe(c *config) (rig, error) {
	sess, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		return nil, err
	}
	trace := boundedTrace
	inst, err := sess.Start(nil, capi.RunOptions{
		PatchAll:    true,
		Backends:    []string{string(capi.BackendExtrae)},
		Ranks:       1,
		HTTPWorkers: serveWorkers,
		Trace:       &trace,
	})
	if err != nil {
		return nil, err
	}
	svc, err := middleware.New(inst, sess.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: serveWorkers, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &serveRig{inst: inst, svc: svc, done: make(chan struct{}), pairs: map[string]int64{}}
	g.srv = &http.Server{Handler: c.tr.wrap("serve.handler", false, svc)}
	go func() {
		defer close(g.done)
		g.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	ids := rand.New(rand.NewSource(c.seed))
	for _, route := range genRoutes(c.seed, c.scaled(serveRoutes), svc.RandomRoute) {
		method, path, _ := strings.Cut(route, " ")
		path = strings.ReplaceAll(path, "{id}", fmt.Sprint(1+ids.Intn(9999)))
		g.calls = append(g.calls, call{route: route, method: method, path: path})
		g.pairs[route] = int64(svc.EventPairs(route))
	}
	for k := 0; k < min(producers(), 2); k++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, &rawConn{Conn: nc, br: bufio.NewReader(nc)})
	}
	return g, nil
}

// rawConn is one keep-alive HTTP/1.1 connection of the load generator. The
// generator writes requests itself instead of going through net/http's
// client so that the open loop can put a request on the wire at its due time
// while earlier replies are still outstanding; the server under test is the
// real net/http server either way.
type rawConn struct {
	net.Conn
	br *bufio.Reader
}

// send writes one request.
func (rc *rawConn) send(ca call, tr *tracer, sp int, req int64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", ca.method, ca.path)
	if tr != nil {
		fmt.Fprintf(&b, "%s: %d\r\n%s: %d\r\n", hdrSpan, sp, hdrReq, req)
	}
	b.WriteString("\r\n")
	_, err := io.WriteString(rc.Conn, b.String())
	return err
}

// recv reads one reply and checks it: 200, and a body that names the route
// that was asked for.
func (rc *rawConn) recv(ca call) bool {
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(body), fmt.Sprintf("%q", ca.route))
}

func (g *serveRig) close() {
	g.srv.Close()
	<-g.done
	for _, rc := range g.conns {
		rc.Close()
	}
	g.inst.Close()
}

// take hands out the next n generated requests and books the enters they
// will dispatch.
func (g *serveRig) take(n int) []call {
	out := make([]call, n)
	for i := range out {
		out[i] = g.calls[g.next%len(g.calls)]
		g.next++
		g.offered += g.pairs[out[i].route]
	}
	return out
}

// do sends one request and waits for its reply.
func (g *serveRig) do(rc *rawConn, ca call, tr *tracer, req int64) {
	sp := tr.begin("serve.roundtrip", 0, req)
	if rc.send(ca, tr, sp, req) != nil || !rc.recv(ca) {
		g.failed.Add(1)
	}
	tr.end(sp)
}

// closedTrial sends n requests over the keep-alive connections, each
// connection sending its next request when the reply to the last one is
// read. It returns the wall time and every request's round trip (ns).
func (g *serveRig) closedTrial(c *config, n int) (time.Duration, []float64) {
	calls := g.take(n)
	lat := make([]float64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, rc := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(g.conns) {
				t := time.Now()
				g.do(rc, calls[i], c.tr, int64(i))
				lat[i] = float64(time.Since(t))
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), lat
}

// openTrial sends n requests on a fixed schedule of rate req/s and returns
// each request's latency from its due time (ns) and the share of requests the
// generator itself wrote late. This goroutine keeps the schedule and writes
// each request to its connection at the due time, whether or not earlier
// replies have arrived; one reader per connection takes the replies in order.
func (g *serveRig) openTrial(c *config, n, rate int) ([]float64, float64) {
	calls := g.take(n)
	lat := make([]float64, n)
	type sent struct {
		i, sp int
		due   time.Time
	}
	var wg sync.WaitGroup
	pending := make([]chan sent, len(g.conns))
	for k, rc := range g.conns {
		// Room for every request of the trial: the schedule never waits for
		// a reader.
		pending[k] = make(chan sent, n/len(g.conns)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range pending[k] {
				if !rc.recv(calls[s.i]) {
					g.failed.Add(1)
				}
				lat[s.i] = float64(time.Since(s.due))
				c.tr.end(s.sp)
			}
		}()
	}
	p := &pacer{start: time.Now().Add(time.Millisecond), interval: time.Second / time.Duration(rate)}
	for i := 0; i < n; i++ {
		due := p.next(time.Time{})
		k := i % len(g.conns)
		sp := c.tr.begin("serve.roundtrip", 0, int64(i))
		if g.conns[k].send(calls[i], c.tr, sp, int64(i)) != nil {
			g.failed.Add(1)
			continue
		}
		pending[k] <- sent{i, sp, due}
	}
	for _, ch := range pending {
		close(ch)
	}
	wg.Wait()
	return lat, p.lateFrac()
}

// openStage is the open-loop report at one rate: per-trial p50, p99 and
// p99.9 from the due time (us) and the generator's own lateness. A trial
// whose generator ran late on more than lateLimit of its requests is run
// again once; if the second attempt is late too it is kept and counted,
// because on a busy machine there is nothing better to be had.
func (g *serveRig) openStage(c *config, rate int) (p50, p99, p999, late []float64, invalid int) {
	n := c.scaled(openRequests)
	g.openTrial(c, n/5, rate) // warm-up
	for t := 0; t < openTrials; t++ {
		lat, lateFrac := g.openTrial(c, n, rate)
		if lateFrac > lateLimit {
			if lat, lateFrac = g.openTrial(c, n, rate); lateFrac > lateLimit {
				invalid++
			}
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.5)/1e3)
		p99 = append(p99, quantile(lat, 0.99)/1e3)
		p999 = append(p999, quantile(lat, 0.999)/1e3)
		late = append(late, lateFrac)
	}
	return p50, p99, p999, late, invalid
}

func (g *serveRig) run(c *config, r *result) error {
	// Closed loop: each connection sends its next request when the reply
	// to the last one is read. Capacity, and the latency a caller that
	// waits for its reply sees.
	var rate, p50s, p99s []float64
	n := c.scaled(closedRequests)
	err := runTrials(c, 0.75, func(warm bool) error {
		wall, lat := g.closedTrial(c, n)
		if !warm {
			rate = append(rate, float64(n)/wall.Seconds())
			sort.Float64s(lat)
			p50s = append(p50s, quantile(lat, 0.5)/1e3)
			p99s = append(p99s, quantile(lat, tailQuantile(n))/1e3)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e("throughput_per_s", rate...)
	r.e2e("latency_p50_us", p50s...)
	r.layer("latency.tail_us", p99s...)
	var handlerUs float64
	if c.tr != nil {
		// Spans of the closed stage: the handler wrapper, and the client's
		// round trip around it.
		r.layer("nethttp.roundtrip_us", scale(c.tr.selfTimes("serve.roundtrip", "serve.handler", false), 1e-3)...)
		handlerUs = mean(c.tr.durations("serve.handler")) / 1e3
	}

	// The same route sequence through Service.Do, in process: what the
	// dispatching thread pays per event without net/http around it.
	var nsPerEvent, doUs []float64
	var events float64
	n = c.scaled(doRequests)
	err = runTrials(c, 0.25, func(warm bool) error {
		before := g.offered
		calls := g.take(n)
		sp := c.tr.begin("serve.do_trial", 0, 0)
		t0 := time.Now()
		for _, ca := range calls {
			if _, err := g.svc.Do(ca.route); err != nil {
				return err
			}
		}
		wall := time.Since(t0)
		c.tr.end(sp)
		if !warm {
			events = 2 * float64(g.offered-before)
			nsPerEvent = append(nsPerEvent, float64(wall)/events)
			doUs = append(doUs, usOf(wall)/float64(n))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e("app_ns_per_event", nsPerEvent...)
	r.layer("middleware.do_us", doUs...)
	r.layer("middleware.events_per_req", events/float64(n))
	if c.tr != nil {
		// Means on both sides: the route mix is skewed, so a median span
		// and a per-trial mean would not be of the same request.
		r.layer("middleware.handler_us", handlerUs-mean(doUs))
	}

	// Open loop, for the layer report only: latency from the due time at
	// three fixed rates, and how late the generator itself ran.
	if c.layers {
		inLimit, invalid := 0.0, 0
		for _, rt := range openRates {
			p50, p99, p999, late, inv := g.openStage(c, rt)
			invalid += inv
			if median(p99) <= p99LimitUs && median(late) <= lateLimit {
				inLimit = max(inLimit, float64(rt))
			}
			r.layer(fmt.Sprintf("serve.p99_at_%d_us", rt), p99...)
			if rt == 2000 {
				r.layer("serve.p50_at_2000_us", p50...)
				r.layer("serve.req_p999_us", p999...)
				r.layer("serve.late_frac", late...)
			}
		}
		r.layer("serve.max_rate_in_limit", inLimit)
		r.layer("serve.invalid_trials", float64(invalid))
	}

	g.oracle(r)
	return nil
}

// oracle: every request was answered correctly, and the backend received
// exactly the enters the generated requests dispatch - no sampling policy is
// installed and nothing may be dropped.
func (g *serveRig) oracle(r *result) {
	sent := int64(g.next)
	r.Attempted, r.Failed = r.Attempted+sent, r.Failed+g.failed.Load()
	st := g.inst.Status()
	enters, exits, err := backendEvents(g.inst)
	r.check(err == nil, "reading the backend's event count: %v", err)
	r.check(enters == g.offered, "backend received %d enters, the %d generated requests dispatch %d", enters, sent, g.offered)
	r.check(enters == exits, "backend received %d enters but %d exits", enters, exits)
	dropped := st.DroppedAsync + st.DroppedPanicked + st.DroppedInFlight + st.DroppedUnpatched
	r.check(dropped == 0, "dropped events: %d async, %d panicked, %d in flight, %d unpatched", st.DroppedAsync, st.DroppedPanicked, st.DroppedInFlight, st.DroppedUnpatched)
	r.check(len(st.DetachedBackends) == 0, "detached backends: %v", st.DetachedBackends)
	r.check(st.HTTP != nil && st.HTTP.Requests == sent, "instance observed %v requests, generator sent %d", st.HTTP, sent)
}
