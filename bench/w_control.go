package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/experiments"
	"capi/internal/fleet"
)

// Sizing of control_plane and fleet_fanout.
const (
	liveStream    = 1 << 18 // events of the live-traffic stream
	liveRate      = 1e6     // events/s the live traffic offers
	fleetMembers  = 3
	controlRounds = 20 // select + three scrapes, per control_plane trial
	fleetRounds   = 4  // ten coordinator operations, per fleet_fanout trial
)

// builtins are the two selections the control workloads alternate between.
var builtins = []string{"mpi", "kernels"}

// member is one live openfoam instance behind its own control plane, on a
// loopback server: the whole of control_plane, a third of fleet_fanout.
type member struct {
	sess   *capi.Session
	inst   *capi.Instance
	ctl    *ctl.Server
	ts     *httptest.Server
	active map[string]int // builtin -> selection size, from Session.Select alone
	union  []int32        // IDs either selection instruments
	hot    string         // a function name in both selections
}

func newMember(c *config, spanName string) (*member, error) {
	sess, err := openfoam(c)
	if err != nil {
		return nil, err
	}
	m := &member{sess: sess, active: map[string]int{}}
	sels := map[string]*capi.Selection{}
	for _, b := range builtins {
		src, err := experiments.SpecSource(b)
		if err != nil {
			return nil, err
		}
		if sels[b], err = sess.Select(src); err != nil {
			return nil, err
		}
		m.active[b] = sels[b].IC.Len()
	}
	trace := boundedTrace
	m.inst, err = sess.Start(sels["kernels"], capi.RunOptions{
		Backends:    []string{string(capi.BackendExtrae)},
		Ranks:       2,
		HTTPWorkers: 1,
		Trace:       &trace,
	})
	if err != nil {
		return nil, err
	}
	seen := map[int32]bool{}
	for _, b := range builtins {
		for _, name := range sels[b].IC.Include {
			id, ok := m.inst.ResolveFunctionName(name)
			if !ok {
				continue
			}
			if seen[id] && m.hot == "" {
				m.hot = name
			}
			if !seen[id] {
				seen[id] = true
				m.union = append(m.union, id)
			}
		}
	}
	sort.Slice(m.union, func(i, j int) bool { return m.union[i] < m.union[j] })
	m.ctl = ctl.New(sess, m.inst, "openfoam")
	m.ts = httptest.NewServer(c.tr.wrap(spanName, true, m.ctl))
	return m, nil
}

func (m *member) close() {
	m.ctl.Shutdown()
	m.ts.Close()
	m.inst.Close()
}

// liveTraffic is the application that keeps running while the control plane
// changes its instrumentation: one goroutine replays a seeded stream over
// the union of the two selections at a fixed average rate, asking
// FunctionActive before each enter exactly as middleware.Service does.
type liveTraffic struct {
	inst *capi.Instance
	rc   *capi.RequestContext
	s    stream
	stop chan struct{}
	done chan struct{}

	open  [maxDepth]bool
	depth int

	enters, exits int64     // events that passed the guard and were dispatched
	nsPerEvent    []float64 // one value per stream replay
}

func startTraffic(c *config, m *member) (*liveTraffic, error) {
	rcs, err := m.inst.NewRequestContexts(1)
	if err != nil {
		return nil, err
	}
	ids := append([]int32(nil), m.union...)
	shuffleIDs(ids, workingSetSeed)
	t := &liveTraffic{
		inst: m.inst,
		rc:   rcs[0],
		s:    genStream(c.seed, ids, c.scaled(liveStream)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go t.loop()
	return t, nil
}

// loop holds the average rate with a timer, not a spin: the processor is
// the control plane's while the application is between bursts. A timer that
// fires late is caught up by dispatching the overdue batches back to back.
func (t *liveTraffic) loop() {
	defer close(t.done)
	interval := time.Duration(float64(batchEvents) / liveRate * float64(time.Second))
	start := time.Now()
	for k := 0; ; {
		var inside time.Duration
		for off := 0; off < len(t.s); off += batchEvents {
			if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
				select {
				case <-t.stop:
					return
				case <-time.After(d):
				}
			}
			k++
			t0 := time.Now()
			t.batch(t.s[off:min(off+batchEvents, len(t.s))])
			inside += time.Since(t0)
		}
		t.nsPerEvent = append(t.nsPerEvent, float64(inside)/float64(len(t.s)))
		select {
		case <-t.stop:
			return
		default:
		}
	}
}

func (t *liveTraffic) batch(b stream) {
	for _, v := range b {
		if v >= 0 {
			ok := t.inst.FunctionActive(v)
			t.open[t.depth] = ok
			t.depth++
			if ok {
				t.rc.Enter(v)
				t.enters++
			}
		} else {
			t.depth--
			if t.open[t.depth] {
				t.rc.Exit(^v)
				t.exits++
			}
		}
		t.rc.Advance(advanceNs)
	}
}

func (t *liveTraffic) halt() {
	close(t.stop)
	<-t.done
}

// report books what both control workloads report: the median select (or
// select fan-out) per trial, the tail over every select of the run, control
// operations per second, and what the live traffic paid per event meanwhile.
func (t *liveTraffic) report(r *result, selMs, allMs, opsPerS []float64) {
	allMs = r.pooled("selects_ms", allMs...)
	q := tailQuantile(len(allMs))
	r.Notes["tail_quantile"], r.Notes["selects"] = q, len(allMs)
	r.e2e("latency_p50_us", scale(selMs, 1e3)...)
	r.Layers["latency.tail_us"] = single(quantile(allMs, q) * 1e3)
	r.e2e("throughput_per_s", opsPerS...)
	r.e2e("app_ns_per_event", t.nsPerEvent...)
}

// oracle: every event the application dispatched was delivered to the
// backend, sampled out by an installed policy, or counted as dropped while a
// re-selection was in flight.
func (t *liveTraffic) oracle(r *result) {
	t.inst.FlushSampling()
	st := t.inst.Status()
	enters, exits, err := backendEvents(t.inst)
	r.check(err == nil, "reading the backend's event count: %v", err)
	r.check(t.enters > 0 && len(t.nsPerEvent) > 0, "live traffic dispatched %d enters in %d replays", t.enters, len(t.nsPerEvent))
	var policy int64
	if st.Sampling != nil {
		c := st.Sampling.Counters
		policy = c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls
	}
	dropped := st.DroppedInFlight + st.DroppedUnpatched
	lost := t.enters - enters - policy
	r.check(lost >= 0 && lost <= dropped, "live traffic: %d enters dispatched, %d delivered, %d dropped by policy: %d unaccounted, drop counters hold %d", t.enters, enters, policy, lost, dropped)
	if policy == 0 {
		r.check(lost+(t.exits-exits) == dropped, "live traffic: %d enters + %d exits missing at the backend, drop counters hold %d", lost, t.exits-exits, dropped)
	}
	r.check(st.DroppedAsync+st.DroppedPanicked == 0, "dropped: %d async, %d panicked", st.DroppedAsync, st.DroppedPanicked)
	r.check(len(st.DetachedBackends) == 0, "detached backends: %v", st.DetachedBackends)
}

// driver is the sequential control client: one keep-alive connection, the
// next operation after the reply to the last one.
type driver struct {
	c      *config
	r      *result
	client *http.Client
	req    int64
}

func newDriver(c *config, r *result) *driver {
	return &driver{c: c, r: r, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (d *driver) close() { d.client.Transport.(*http.Transport).CloseIdleConnections() }

// call does one operation and returns its latency and body. A reply that is
// not 200 or does not contain want counts as failed.
func (d *driver) call(span, method, url, body, want string) (time.Duration, []byte) {
	d.req++
	d.r.Attempted++
	t0 := time.Now()
	sp := d.c.tr.begin(span, 0, d.req)
	defer d.c.tr.end(sp)
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		d.r.Failed++
		return 0, nil
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	d.c.tr.tag(req, sp, d.req)
	resp, err := d.client.Do(req)
	if err != nil {
		d.r.Failed++
		return time.Since(t0), nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(out), want) {
		d.r.Failed++
		if len(d.r.Problems) < 4 { // the first few say what is wrong; the count is in Failed
			d.r.check(false, "%s %s: status %d, body %.120q, want %q", method, url, resp.StatusCode, out, want)
		}
	}
	return lat, out
}

// scrapes are the three read endpoints and what each body must contain.
var scrapes = []struct{ path, want string }{
	{"/v1/status", `"activeFunctions"`},
	{"/metrics", "capi_active_functions"},
	{"/v1/selection", `"functions"`},
}

type controlRig struct {
	m       *member
	traffic *liveTraffic
}

func setupControl(c *config) (rig, error) {
	m, err := newMember(c, "ctl.handler")
	if err != nil {
		return nil, err
	}
	return &controlRig{m: m}, nil
}

func (g *controlRig) close() { g.m.close() }

func (g *controlRig) run(c *config, r *result) error {
	var err error
	if g.traffic, err = startTraffic(c, g.m); err != nil {
		return err
	}
	d := newDriver(c, r)
	defer d.close()
	base := g.m.ts.URL

	var selMs, scrapeMs, all, opsPerS []float64
	turn := 0
	err = runTrials(c, 1, func(warm bool) error {
		var sel, scr []float64
		t0 := time.Now()
		for i := 0; i < c.scaled(controlRounds); i++ {
			b := builtins[turn%len(builtins)]
			turn++
			lat, body := d.call("ctl.select", http.MethodPost, base+"/v1/select", fmt.Sprintf(`{"builtin":%q}`, b), `"active"`)
			var resp ctl.SelectResponse
			if json.Unmarshal(body, &resp) == nil {
				r.check(resp.Active == g.m.active[b], "select %s: response says %d active, Session.Select alone gives %d", b, resp.Active, g.m.active[b])
			}
			sel = append(sel, msOf(lat))
			for _, s := range scrapes {
				lat, _ := d.call("ctl.scrape", http.MethodGet, base+s.path, "", s.want)
				scr = append(scr, msOf(lat))
			}
		}
		wall := time.Since(t0)
		if !warm {
			selMs = append(selMs, median(sel))
			scrapeMs = append(scrapeMs, median(scr))
			all = append(all, sel...)
			opsPerS = append(opsPerS, float64(len(sel)+len(scr))/wall.Seconds())
		}
		return nil
	})
	g.traffic.halt()
	if err != nil {
		return err
	}
	g.traffic.report(r, selMs, all, opsPerS)
	r.layer("ctl.scrape_p50_ms", scrapeMs...)
	if c.tr != nil {
		r.layer("ctl.select_handler_ms", scale(c.tr.durations("ctl.handler/v1/select"), 1e-6)...)
	}
	g.traffic.oracle(r)
	st := g.m.inst.Status()
	r.check(st.Reconfigs == turn, "instance applied %d re-selections, driver sent %d", st.Reconfigs, turn)
	return nil
}

type fleetRig struct {
	members []*member
	coord   *fleet.Server
	ts      *httptest.Server
	traffic *liveTraffic
}

func setupFleet(c *config) (rig, error) {
	g := &fleetRig{}
	var urls []string
	for i := 0; i < fleetMembers; i++ {
		m, err := newMember(c, "fleet.member")
		if err != nil {
			g.close()
			return nil, err
		}
		g.members = append(g.members, m)
		urls = append(urls, m.ts.URL)
	}
	var err error
	// Static members, prober off: membership does not change under the
	// measurement.
	if g.coord, err = fleet.New(fleet.Options{Members: urls, ProbeInterval: -1}); err != nil {
		g.close()
		return nil, err
	}
	g.ts = httptest.NewServer(g.coord)
	return g, nil
}

func (g *fleetRig) close() {
	if g.ts != nil {
		g.ts.Close()
		g.coord.Close()
	}
	for _, m := range g.members {
		m.close()
	}
}

func (g *fleetRig) run(c *config, r *result) error {
	var err error
	if g.traffic, err = startTraffic(c, g.members[0]); err != nil {
		return err
	}
	d := newDriver(c, r)
	defer d.close()
	base := g.ts.URL
	hot := g.members[0].hot

	var selMs, sampMs, metricsMs, statusMs, all, opsPerS []float64
	var attempts, fanouts float64
	turn := 0
	err = runTrials(c, 1, func(warm bool) error {
		var sel, samp, met, stat []float64
		ops := 0
		t0 := time.Now()
		for i := 0; i < c.scaled(fleetRounds); i++ {
			for k := 0; k < 3; k++ {
				b := builtins[turn%len(builtins)]
				lat, body := d.call("fleet.select", http.MethodPost, base+"/v1/select", fmt.Sprintf(`{"builtin":%q}`, b), `"applied"`)
				var resp fleet.FanoutResponse
				if json.Unmarshal(body, &resp) == nil {
					r.check(len(resp.Applied) == fleetMembers && !resp.Divergent, "select fan-out %s applied on %d of %d members", b, len(resp.Applied), fleetMembers)
					for _, mr := range resp.Applied {
						var sr ctl.SelectResponse
						ok := json.Unmarshal(mr.Response, &sr) == nil && sr.Active == g.members[0].active[b]
						r.check(ok, "select fan-out %s: member %s says %d active, Session.Select alone gives %d", b, mr.Member, sr.Active, g.members[0].active[b])
						attempts += float64(mr.Attempts)
					}
					fanouts++
				}
				sel = append(sel, msOf(lat))

				// The cheap mutation: one function's stride, so that the
				// member does almost nothing and the coordinator's own
				// overhead is what is timed.
				lat, _ = d.call("fleet.sampling", http.MethodPost, base+"/v1/sampling", fmt.Sprintf(`{"functions":{%q:{"stride":%d}}}`, hot, 2+2*(turn%2)), `"applied"`)
				samp = append(samp, msOf(lat))
				turn++
			}
			for k := 0; k < 2; k++ {
				lat, _ := d.call("fleet.metrics", http.MethodGet, base+"/metrics", "", "capi_active_functions")
				met = append(met, msOf(lat))
				lat, _ = d.call("fleet.status", http.MethodGet, base+"/v1/fleet/status", "", `"rollup"`)
				stat = append(stat, msOf(lat))
			}
			ops += 10
		}
		wall := time.Since(t0)
		if !warm {
			selMs, sampMs = append(selMs, median(sel)), append(sampMs, median(samp))
			metricsMs, statusMs = append(metricsMs, median(met)), append(statusMs, median(stat))
			all = append(all, sel...)
			opsPerS = append(opsPerS, float64(ops)/wall.Seconds())
		}
		return nil
	})
	g.traffic.halt()
	if err != nil {
		return err
	}
	g.traffic.report(r, selMs, all, opsPerS)
	r.layer("fleet.sampling_fanout_ms", sampMs...)
	r.layer("fleet.metrics_merge_ms", metricsMs...)
	r.layer("fleet.status_ms", statusMs...)
	r.layer("fleet.attempts_per_fanout", attempts/max(fanouts, 1))
	if c.tr != nil {
		const memberSelect = "fleet.member/v1/select"
		c.tr.adopt("fleet.select", memberSelect)
		r.layer("fleet.fanout_overhead_ms", scale(c.tr.selfTimes("fleet.select", memberSelect, true), 1e-6)...)
		r.layer("fleet.member_span_max_ms", scale(c.tr.slowestChild("fleet.select", memberSelect), 1e-6)...)
	}
	g.traffic.oracle(r)
	for i, m := range g.members {
		st := m.inst.Status()
		r.check(st.Reconfigs == turn, "member %d applied %d re-selections, driver sent %d", i, st.Reconfigs, turn)
	}
	return nil
}
