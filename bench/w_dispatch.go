package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	capi "capi"
)

// Sizing of the dispatch workloads (2-4 shared cores assumed; see README).
const (
	openfoamScale = 0.1  // 10,337 patchable functions
	workingSet    = 4096 // function IDs a stream draws from
	// workingSetSeed fixes which functions those are and which of them are
	// hot: the working set is the workload, the run's seed orders the events.
	// (Which IDs are hot moves the cost per event by several percent through
	// the lookup maps' layout, and a run-to-run spread is not what a seed is
	// for.)
	workingSetSeed = 1
	hotIDs         = 16 // hottest IDs, demoted to 1-in-hotStride sampling
	hotStride      = 8
	streamEvents   = 1 << 20 // events of one pre-generated stream
	pacedRate      = 2e6     // events/s offered in the paced stage
	pacedEvents    = 1 << 18 // events of one paced trial: 1,024 batches, ten beyond p99
	// asyncRing is the per-rank ring of dispatch_async, in events. The
	// default ring (65,536) holds 32 ms of the paced rate, and the sizing box
	// takes the consumer's processor away for longer than that every few
	// seconds (vCPU steal, a GC cycle's dedicated worker): 3 runs in 10
	// dropped pairs that had nothing to do with the program. This one holds
	// 262 ms.
	asyncRing = 1 << 19
	// lateAfter is how far behind its due time a generator may start a batch
	// or request before that one counts as late; more than lateLimit of them
	// late makes the trial invalid.
	lateAfter = time.Millisecond
	lateLimit = 0.01
)

// openfoam compiles the openfoam stand-in; the smoke test takes it at half
// the scale, which still has more functions than the working set.
func openfoam(c *config) (*capi.Session, error) {
	scale := openfoamScale
	if c.short {
		scale /= 2
	}
	return capi.NewAppSession("openfoam", scale)
}

// boundedTrace keeps the extrae backend in constant memory however long a
// run dispatches: the newest window is retained, older segments wrap.
var boundedTrace = capi.TraceOptions{BufEvents: 4096, MaxEvents: 1 << 14, Wrap: true}

type dispatchRig struct {
	async   bool
	inst    *capi.Instance
	rcs     []*capi.RequestContext
	streams []stream
	enters  []int64 // enter events of one replay, per producer
}

func setupDispatch(async bool) func(c *config) (rig, error) {
	return func(c *config) (rig, error) {
		sess, err := openfoam(c)
		if err != nil {
			return nil, err
		}
		byName, err := sess.Build().StaticPackedIDs()
		if err != nil {
			return nil, err
		}
		ids := pickIDs(byName, workingSet, workingSetSeed)
		demoted := map[int32]capi.SamplingPolicy{}
		for _, id := range ids[:hotIDs] {
			demoted[id] = capi.SamplingPolicy{Stride: hotStride}
		}
		// The async workload has one producer: the other core is the
		// consumer's.
		p := producers()
		if async {
			p = 1
		}
		trace := boundedTrace
		inst, err := sess.Start(nil, capi.RunOptions{
			PatchAll:    true,
			Backends:    []string{string(capi.BackendExtrae)},
			Ranks:       1,
			HTTPWorkers: 2 * p,
			Async:       async,
			AsyncBuf:    asyncRing,
			Trace:       &trace,
			Sampling:    &capi.SamplingOptions{IDs: demoted},
		})
		if err != nil {
			return nil, err
		}
		rcs, err := inst.NewRequestContexts(2 * p)
		if err != nil {
			return nil, err
		}
		g := &dispatchRig{async: async, inst: inst, rcs: distinctLines(rcs, p)}
		for k := 0; k < p; k++ {
			s := genStream(c.seed+int64(k), ids, c.scaled(streamEvents))
			g.streams = append(g.streams, s)
			g.enters = append(g.enters, s.enters())
		}
		return g, nil
	}
}

func (g *dispatchRig) close() { g.inst.Close() }

// distinctLines picks p request contexts no two of which lie on one cache
// line. Contexts allocated together are packed two to a 64-byte line, and
// every event writes its context's clock, so whether two producers happen to
// share a line decides a 3.5x difference in cost per event (84 vs 300 ns on
// the sizing box) - a coin toss per process that no median can steady.
// Among 2p contexts there are always p on distinct lines, so this layout can
// be had on every run; the sharing layout cannot. The cost of sharing is
// recorded in noise.md.
func distinctLines(rcs []*capi.RequestContext, p int) []*capi.RequestContext {
	seen := map[uintptr]bool{}
	var out []*capi.RequestContext
	for _, rc := range rcs {
		line := uintptr(unsafe.Pointer(rc)) >> 6
		if !seen[line] && len(out) < p {
			seen[line] = true
			out = append(out, rc)
		}
	}
	return out
}

// replay dispatches the stream once, closed loop, and appends the time each
// batch spent inside Enter/Exit to lat.
func replay(rc *capi.RequestContext, s stream, lat []float64) []float64 {
	for off := 0; off < len(s); off += batchEvents {
		t := time.Now()
		dispatchBatch(rc, s[off:min(off+batchEvents, len(s))])
		lat = append(lat, float64(time.Since(t)))
	}
	return lat
}

func dispatchBatch(rc *capi.RequestContext, b stream) {
	for _, v := range b {
		if v >= 0 {
			rc.Enter(v)
		} else {
			rc.Exit(^v)
		}
		rc.Advance(advanceNs)
	}
}

// pacer is the open-loop schedule: operation k is due at start+k*interval
// whatever happened to the ones before it, and the pacer reports how late
// it ran itself.
type pacer struct {
	start    time.Time
	interval time.Duration
	n, late  int
}

// next waits for the next due time and returns it. free is when the caller
// became ready: a caller that was still busy at the due time is the
// program's queue, not the generator's lateness.
//
// The wait spins, because timers on the sizing box overshoot a 500 us sleep
// by 700 us, which is several intervals. It spins without yielding, because
// a goroutine that yields in a loop is handed from processor to processor
// and none of them ever goes idle enough to poll the network: replies then
// wait for the runtime's 10 ms background poll. With a single processor there
// is nobody else to run the program, so there it must yield.
func (p *pacer) next(free time.Time) time.Time {
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	yield := runtime.GOMAXPROCS(0) == 1
	for time.Now().Before(due) {
		if yield {
			runtime.Gosched()
		}
	}
	if !free.After(due) && time.Since(due) > lateAfter {
		p.late++
	}
	return due
}

func (p *pacer) lateFrac() float64 { return float64(p.late) / float64(max(p.n, 1)) }

// replayPaced dispatches the stream once on the pacer's schedule. It returns
// the time spent inside Enter/Exit and appends each batch's latency from its
// due time to lat.
func replayPaced(rc *capi.RequestContext, s stream, p *pacer, lat []float64) (time.Duration, []float64) {
	var inside time.Duration
	free := time.Now()
	for off := 0; off < len(s); off += batchEvents {
		due := p.next(free)
		t := time.Now()
		dispatchBatch(rc, s[off:min(off+batchEvents, len(s))])
		free = time.Now()
		inside += free.Sub(t)
		lat = append(lat, float64(free.Sub(due)))
	}
	return inside, lat
}

// backendEvents reads how many enters and exits the extrae backend received,
// from the backend's own report.
func backendEvents(inst *capi.Instance) (enters, exits int64, err error) {
	rep, ok := inst.Reports()[string(capi.BackendExtrae)].(capi.JSONReport)
	if !ok {
		return 0, 0, fmt.Errorf("no extrae report")
	}
	tr, ok := rep.Value.(*capi.TraceReport)
	if !ok {
		return 0, 0, fmt.Errorf("extrae report is a %T", rep.Value)
	}
	for _, rk := range tr.Ranks {
		enters += rk.Enters
		exits += rk.Exits
	}
	return enters, exits, nil
}

// batchStats reduces one trial's batch times to its median and tail.
func batchStats(lat []float64) (p50, tail float64) {
	sort.Float64s(lat)
	return quantile(lat, 0.5), quantile(lat, tailQuantile(len(lat)))
}

func (g *dispatchRig) run(c *config, r *result) error {
	var offered int64 // enters the generator dispatched, all stages
	var err error
	if g.async {
		offered, err = g.runAsync(c, r)
	} else {
		offered, err = g.runInline(c, r)
	}
	if err != nil {
		return err
	}
	g.oracle(r, offered)
	return nil
}

// runInline is the closed loop: P producers, each replaying its own stream
// on its own request context.
func (g *dispatchRig) runInline(c *config, r *result) (int64, error) {
	var (
		offered                      int64
		nsPerEvent, rate, p50s, tail []float64
		lats                         = make([][]float64, len(g.rcs))
	)
	err := runTrials(c, 1, func(warm bool) error {
		before, _, err := backendEvents(g.inst)
		if err != nil {
			return err
		}
		sp := c.tr.begin("dispatch_inline.trial", 0, 0)
		var wg sync.WaitGroup
		inside := make([]float64, len(g.rcs))
		t0 := time.Now()
		for k, rc := range g.rcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lat := replay(rc, g.streams[k], lats[k][:0])
				for _, d := range lat {
					inside[k] += d
				}
				lats[k] = lat
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		c.tr.end(sp)
		after, _, err := backendEvents(g.inst)
		if err != nil {
			return err
		}
		var events, insideNs float64
		var all []float64
		for k := range g.rcs {
			offered += g.enters[k]
			events += float64(len(g.streams[k]))
			insideNs += inside[k]
			all = append(all, lats[k]...)
		}
		if warm {
			return nil
		}
		nsPerEvent = append(nsPerEvent, insideNs/events)
		rate = append(rate, 2*float64(after-before)/wall.Seconds())
		p50, tl := batchStats(all)
		p50s, tail = append(p50s, p50/1e3), append(tail, tl/1e3)
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.e2e("app_ns_per_event", nsPerEvent...)
	r.e2e("throughput_per_s", rate...)
	r.e2e("latency_p50_us", p50s...)
	r.layer("latency.tail_us", tail...)
	r.Attempted += offered
	return offered, nil
}

// runAsync has two stages. paced offers a fixed rate the consumer can keep
// up with, so a dropped pair there is the pipeline's failure and not the
// producer's speed; saturate offers as fast as it can and times the drain
// with it, which is the sustained figure.
func (g *dispatchRig) runAsync(c *config, r *result) (int64, error) {
	rc, s := g.rcs[0], g.streams[0]
	var offered int64

	var nsPerEvent, p50s, tail, lateFracs []float64
	paced := balancedPrefix(s, c.scaled(pacedEvents))
	pacedEnters := paced.enters()
	lat := make([]float64, 0, len(paced)/batchEvents+1)
	interval := time.Duration(float64(batchEvents) / pacedRate * float64(time.Second))
	invalid := 0
	err := runTrials(c, 0.5, func(warm bool) error {
		// A trial whose generator ran late is run again once; a second late
		// one is kept and counted (see README, "reports on itself").
		for attempt := 0; ; attempt++ {
			sp := c.tr.begin("dispatch_async.paced_trial", 0, 0)
			p := &pacer{start: time.Now(), interval: interval}
			var inside time.Duration
			inside, lat = replayPaced(rc, paced, p, lat[:0])
			c.tr.end(sp)
			offered += pacedEnters
			if p.lateFrac() > lateLimit && attempt == 0 {
				continue
			}
			if warm {
				return nil
			}
			if p.lateFrac() > lateLimit {
				invalid++
			}
			nsPerEvent = append(nsPerEvent, float64(inside)/float64(len(paced)))
			p50, tl := batchStats(lat)
			p50s, tail = append(p50s, p50/1e3), append(tail, tl/1e3)
			lateFracs = append(lateFracs, p.lateFrac())
			return nil
		}
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	g.inst.DrainPipeline()
	r.layer("pipeline.drain_wait_ms", msOf(time.Since(t0)))
	pacedDropped := g.inst.DroppedAsync()
	r.Attempted, r.Failed = r.Attempted+offered, r.Failed+pacedDropped
	r.layer("pipeline.dropped_pairs", float64(pacedDropped))
	r.Notes["paced_late_frac"], r.Notes["paced_invalid_trials"] = median(lateFracs), invalid

	var rate, dropFrac []float64
	err = runTrials(c, 0.5, func(warm bool) error {
		before, _, err := backendEvents(g.inst)
		if err != nil {
			return err
		}
		dropped := g.inst.DroppedAsync()
		sp := c.tr.begin("dispatch_async.saturate_trial", 0, 0)
		t0 := time.Now()
		dispatchBatch(rc, s)
		g.inst.DrainPipeline()
		wall := time.Since(t0)
		c.tr.end(sp)
		offered += g.enters[0]
		after, _, err := backendEvents(g.inst)
		if err != nil {
			return err
		}
		if warm {
			return nil
		}
		rate = append(rate, 2*float64(after-before)/wall.Seconds())
		dropFrac = append(dropFrac, float64(g.inst.DroppedAsync()-dropped)/float64(g.enters[0]))
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.e2e("app_ns_per_event", nsPerEvent...)
	r.e2e("throughput_per_s", rate...)
	r.e2e("latency_p50_us", p50s...)
	r.layer("latency.tail_us", tail...)
	r.layer("pipeline.saturate_drop_frac", dropFrac...)
	return offered, nil
}

// oracle checks the conservation identity against the generator's own count
// of offered enters: every one of them was delivered to the backend or is
// accounted for by exactly one drop counter.
func (g *dispatchRig) oracle(r *result, offered int64) {
	g.inst.DrainPipeline()
	g.inst.FlushSampling()
	st := g.inst.Status()
	enters, exits, err := backendEvents(g.inst)
	r.check(err == nil, "reading the backend's event count: %v", err)
	r.check(st.Sampling != nil, "no sampling counters in Status()")
	if err != nil || st.Sampling == nil {
		return
	}
	sc := st.Sampling.Counters
	accounted := enters + sc.SampledEvents + sc.SuppressedPairs + sc.CollapsedCalls + st.DroppedAsync + st.DroppedPanicked
	r.check(accounted == offered,
		"conservation: offered %d != delivered %d + sampledOut %d + suppressed %d + collapsed %d + droppedAsync %d + droppedPanicked %d",
		offered, enters, sc.SampledEvents, sc.SuppressedPairs, sc.CollapsedCalls, st.DroppedAsync, st.DroppedPanicked)
	r.check(enters == exits, "backend received %d enters but %d exits", enters, exits)
	r.check(sc.SampledEvents > 0, "the stride policy on the %d hottest IDs sampled nothing out", hotIDs)
	r.check(len(st.DetachedBackends) == 0, "detached backends: %v", st.DetachedBackends)
	r.check(st.DroppedInFlight+st.DroppedUnpatched == 0, "dropped outside the selection: %d in flight, %d unpatched", st.DroppedInFlight, st.DroppedUnpatched)
	if !g.async {
		r.Failed += offered - (accounted - st.DroppedAsync - st.DroppedPanicked)
	}
}
