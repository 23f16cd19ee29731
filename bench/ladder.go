package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/dyncapi"
	"capi/internal/experiments"
	"capi/internal/ic"
	"capi/internal/mpi"
	"capi/internal/scorep"
	"capi/internal/talp"
	"capi/internal/trace"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// The ladder measures each layer alone, by timing calls into that layer's
// public functions. Events are too short to span one by one, so a rung is
// minTrials fixed-work trials of a seeded stream and reports the median
// ns/event; a layer's own cost is its rung minus the rung beneath it. The
// ladder does not depend on the workload: every traced run climbs all of it.

// ladderEventsPerSecond sizes a rung's trial from the run's budget: 1M
// events per trial at -seconds 10, the issue's 4M at -seconds 40.
const ladderEventsPerSecond = 100_000

// ladderCtx is the benchmark's own thread context: rank 0 of an initialised
// one-rank world, which is what TALP needs to register regions.
type ladderCtx struct{ rank *mpi.Rank }

func (c *ladderCtx) RankID() int         { return c.rank.ID() }
func (c *ladderCtx) Clock() *vtime.Clock { return c.rank.Clock() }
func (c *ladderCtx) MPIRank() *mpi.Rank  { return c.rank }

// plainCtx is a rank without MPI, padded to a cache line so that the
// scaling rung measures the runtime's sharing and not the benchmark's.
type plainCtx struct {
	id  int
	clk vtime.Clock
	_   [40]byte
}

func (c *plainCtx) RankID() int         { return c.id }
func (c *plainCtx) Clock() *vtime.Clock { return &c.clk }

func newLadderCtx() (*ladderCtx, *mpi.World, error) {
	world, err := mpi.NewWorld(1, mpi.DefaultCostModel())
	if err != nil {
		return nil, nil, err
	}
	r := world.Rank(0)
	if err := r.Init(); err != nil {
		return nil, nil, err
	}
	return &ladderCtx{rank: r}, world, nil
}

// ladder holds what every rung shares: one compiled openfoam session and
// seeded index streams over a 4- and a 4,096-function working set.
type ladder struct {
	c      *config
	r      *result
	sess   *capi.Session
	ids    []int32 // working set, Zipf rank order
	spare  string  // a function outside the working set
	ws4    stream  // values index ids[:4]
	ws4096 stream  // values index ids
}

// runtimeRig is one freshly loaded process with a dyncapi runtime over it.
type runtimeRig struct {
	xr  *xray.Runtime
	rt  *dyncapi.Runtime
	rfs []*dyncapi.ResolvedFunc // parallel to ladder.ids
}

// runtime loads a process and attaches backend to it with everything
// patched; a nil backend leaves the xray runtime bare, with no handler.
// mk builds the backend once the process it will observe is loaded.
func (l *ladder) runtime(mk func(*capi.Process) dyncapi.Backend, opts dyncapi.Options) (*runtimeRig, error) {
	proc, err := l.sess.Build().LoadProcess()
	if err != nil {
		return nil, err
	}
	xr, err := xray.NewRuntime(proc)
	if err != nil {
		return nil, err
	}
	g := &runtimeRig{xr: xr}
	if mk == nil {
		return g, nil
	}
	opts.PatchAll = true
	opts.Ranks = producers() + 1
	if g.rt, err = dyncapi.New(proc, xr, nil, mk(proc), opts); err != nil {
		return nil, err
	}
	for _, id := range l.ids {
		g.rfs = append(g.rfs, g.rt.Resolved(id))
	}
	return g, nil
}

// with is the mk of a backend that does not need the process.
func with(b dyncapi.Backend) func(*capi.Process) dyncapi.Backend {
	return func(*capi.Process) dyncapi.Backend { return b }
}

// replay dispatches an index stream through xray.Runtime.Dispatch.
func (l *ladder) replay(g *runtimeRig, tc xray.ThreadCtx, s stream) {
	clk := tc.Clock()
	for _, v := range s {
		if v >= 0 {
			g.xr.Dispatch(tc, l.ids[v], xray.Entry)
		} else {
			g.xr.Dispatch(tc, l.ids[^v], xray.Exit)
		}
		clk.Advance(advanceNs)
	}
}

func indexIDs(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func runLadder(c *config, r *result) error {
	sess, err := openfoam(c)
	if err != nil {
		return err
	}
	byName, err := sess.Build().StaticPackedIDs()
	if err != nil {
		return err
	}
	all := pickIDs(byName, len(byName), workingSetSeed)
	if len(all) <= workingSet {
		return fmt.Errorf("ladder: %d functions, need more than %d", len(all), workingSet)
	}
	l := &ladder{c: c, r: r, sess: sess, ids: all[:workingSet]}
	for name, id := range byName {
		if id == all[workingSet] {
			l.spare = name
		}
	}
	n := max(int(c.seconds*ladderEventsPerSecond), 1<<14)
	if c.short {
		n = 1 << 14
	}
	l.ws4 = genStream(c.seed, indexIDs(4), n)
	l.ws4096 = genStream(c.seed, indexIDs(workingSet), n)

	sp := c.tr.begin("ladder", 0, 0)
	defer c.tr.end(sp)
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"dispatch", l.dispatchRungs},
		{"backends", l.backendRungs},
		{"scaling", l.scalingRung},
		{"pipeline", l.pipelineRungs},
		{"control", l.controlRungs},
	} {
		s := c.tr.begin("ladder."+step.name, sp, 0)
		err := step.fn()
		c.tr.end(s)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", step.name, err)
		}
	}
	return nil
}

// timeRung runs fn as a warm-up and then minTrials times, and returns ns per
// event; fn dispatches events events a call.
func (l *ladder) timeRung(events int, fn func()) dist {
	var ns []float64
	runTrials(l.c, 0, func(warm bool) error { //nolint:errcheck // the callback returns nil
		t0 := time.Now()
		fn()
		if d := time.Since(t0); !warm {
			ns = append(ns, float64(d)/float64(events))
		}
		return nil
	})
	return summarize(ns)
}

// viaXRay times an index stream through xray.Runtime.Dispatch.
func (l *ladder) viaXRay(g *runtimeRig, tc xray.ThreadCtx, s stream) dist {
	return l.timeRung(len(s), func() { l.replay(g, tc, s) })
}

// direct times an index stream delivered straight to a backend.
func (l *ladder) direct(g *runtimeRig, b dyncapi.Backend, tc xray.ThreadCtx, s stream) dist {
	clk := tc.Clock()
	return l.timeRung(len(s), func() {
		for _, v := range s {
			if v >= 0 {
				b.OnEnter(tc, g.rfs[v])
			} else {
				b.OnExit(tc, g.rfs[^v])
			}
			clk.Advance(advanceNs)
		}
	})
}

// minus is a rung's own cost: the rung minus the rung beneath it.
func minus(rung, beneath dist) dist {
	rung.Median -= beneath.Median
	rung.Min -= beneath.Min
	return rung
}

func discard() func(*capi.Process) dyncapi.Backend { return with(&dyncapi.CygBackend{}) }

func newExtrae() (dyncapi.Backend, error) {
	opts := boundedTrace
	opts.Ranks = producers() + 1
	buf, err := trace.New(opts)
	if err != nil {
		return nil, err
	}
	return dyncapi.NewExtraeBackend(buf), nil
}

// dispatchRungs climbs xray -> lookup -> sampler -> guard -> backend -> mux.
func (l *ladder) dispatchRungs() error {
	tc := &plainCtx{}
	bare, err := l.runtime(nil, dyncapi.Options{})
	if err != nil {
		return err
	}
	nilRung := l.viaXRay(bare, tc, l.ws4096)
	l.r.Layers["xray.dispatch_nil_ns"] = nilRung

	none, err := l.runtime(discard(), dyncapi.Options{})
	if err != nil {
		return err
	}
	l.r.Layers["dyncapi.lookup_ws4_ns"] = minus(l.viaXRay(none, tc, l.ws4), nilRung)
	noneRung := l.viaXRay(none, tc, l.ws4096)
	l.r.Layers["dyncapi.lookup_ws4096_ns"] = minus(noneRung, nilRung)

	// Miss: re-select down to one function the stream never touches, so
	// that every event finds a known but deselected ID.
	miss, err := l.runtime(discard(), dyncapi.Options{})
	if err != nil {
		return err
	}
	if _, err := miss.rt.Reconfigure(ic.New("openfoam", "bench", []string{l.spare})); err != nil {
		return err
	}
	l.r.Layers["dyncapi.miss_ns"] = minus(l.viaXRay(miss, tc, l.ws4096), nilRung)
	snap := miss.rt.Snapshot()
	l.r.Layers["dyncapi.dropped_inflight"] = single(float64(snap.DroppedInFlight))
	trials := int64(minTrials + 1)
	if l.c.short {
		trials = 4
	}
	l.r.check(snap.DroppedInFlight+snap.DroppedUnpatched == trials*int64(len(l.ws4096)),
		"miss rung: %d events dispatched at deselected IDs, %d in flight + %d unpatched counted", trials*int64(len(l.ws4096)), snap.DroppedInFlight, snap.DroppedUnpatched)

	for _, pol := range []struct {
		metric string
		policy dyncapi.SamplePolicy
	}{
		{"dyncapi.sampler_stride_ns", dyncapi.SamplePolicy{Stride: 64}},
		// Every pair of the stream is shorter than this, so all but each
		// function's first are suppressed.
		{"dyncapi.sampler_suppress_ns", dyncapi.SamplePolicy{MinDurationNs: 1 << 20}},
	} {
		g, err := l.runtime(discard(), dyncapi.Options{})
		if err != nil {
			return err
		}
		if err := g.rt.SetSampling(dyncapi.SamplingConfig{Default: &pol.policy}); err != nil {
			return err
		}
		l.r.Layers[pol.metric] = minus(l.viaXRay(g, tc, l.ws4096), noneRung)
	}

	guarded, err := l.runtime(with(dyncapi.NewGuard(&dyncapi.CygBackend{}, dyncapi.GuardOptions{}).Sink()), dyncapi.Options{})
	if err != nil {
		return err
	}
	l.r.Layers["dyncapi.guard_ns"] = minus(l.viaXRay(guarded, tc, l.ws4096), noneRung)

	ex, err := newExtrae()
	if err != nil {
		return err
	}
	extrae, err := l.runtime(with(ex), dyncapi.Options{})
	if err != nil {
		return err
	}
	extraeRung := l.viaXRay(extrae, tc, l.ws4096)
	l.r.Notes["rung_extrae_inline_ns"] = extraeRung.Median
	if ex, err = newExtrae(); err != nil {
		return err
	}
	muxed, err := l.runtime(with(dyncapi.NewMux(ex)), dyncapi.Options{})
	if err != nil {
		return err
	}
	l.r.Layers["dyncapi.mux1_ns"] = minus(l.viaXRay(muxed, tc, l.ws4096), extraeRung)
	return nil
}

// backendRungs times OnEnter/OnExit called straight on each backend, wired
// to a runtime first so that symbol injection and start-up have happened.
func (l *ladder) backendRungs() error {
	tc, world, err := newLadderCtx()
	if err != nil {
		return err
	}
	ex, err := newExtrae()
	if err != nil {
		return err
	}
	m, err := scorep.New(scorep.Options{Ranks: 1})
	if err != nil {
		return err
	}
	for _, b := range []struct {
		metric string
		mk     func(*capi.Process) dyncapi.Backend
	}{
		{"trace.extrae_ns", with(ex)},
		{"talp.talp_ns", with(dyncapi.NewTALPBackend(talp.New(world, talp.Options{})))},
		{"scorep.scorep_ns", func(proc *capi.Process) dyncapi.Backend {
			return dyncapi.NewScorePBackend(m, scorep.NewResolverFromExecutable(proc))
		}},
	} {
		g, err := l.runtime(b.mk, dyncapi.Options{})
		if err != nil {
			return err
		}
		l.r.Layers[b.metric] = l.direct(g, g.rt.Backend(), tc, l.ws4096)
	}
	return nil
}

// scalingRung compares P producers against one, inline, discarding backend:
// (P-producer events/s) / (P x 1-producer events/s).
func (l *ladder) scalingRung() error {
	p := producers()
	g, err := l.runtime(discard(), dyncapi.Options{})
	if err != nil {
		return err
	}
	ctxs := make([]*plainCtx, p)
	streams := make([]stream, p)
	for k := range ctxs {
		ctxs[k] = &plainCtx{id: k}
		streams[k] = genStream(l.c.seed+int64(k), indexIDs(workingSet), len(l.ws4096))
	}
	rate := func(n int) float64 {
		d := l.timeRung(1, func() {
			var wg sync.WaitGroup
			for k := 0; k < n; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.replay(g, ctxs[k], streams[k])
				}()
			}
			wg.Wait()
		})
		return float64(n*len(l.ws4096)) / d.Median
	}
	l.r.Layers["dyncapi.scaling_eff"] = single(rate(p) / (float64(p) * rate(1)))
	return nil
}

// gate is a backend the benchmark can hold shut: while held, the consumer
// blocks on its first delivery, so a burst is appended with nobody draining
// it, and the drain that follows is the consumer's work alone.
type gate struct {
	dyncapi.Backend
	held atomic.Bool
	mu   sync.Mutex
}

func (g *gate) hold()    { g.mu.Lock(); g.held.Store(true) }
func (g *gate) release() { g.held.Store(false); g.mu.Unlock() }

func (g *gate) OnEnter(tc xray.ThreadCtx, fn *dyncapi.ResolvedFunc) {
	if g.held.Load() {
		g.mu.Lock()
		g.mu.Unlock() //nolint:staticcheck // empty critical section: only waits for release
	}
	g.Backend.OnEnter(tc, fn)
}

// balancedPrefix returns the longest prefix of s of at most limit events
// that ends at depth 0, so that it can be replayed back to back.
func balancedPrefix(s stream, limit int) stream {
	end, depth := 0, 0
	for i := 0; i < min(limit, len(s)); i++ {
		if s[i] >= 0 {
			depth++
		} else {
			depth--
		}
		if depth == 0 {
			end = i + 1
		}
	}
	return s[:end]
}

// pipelineRungs times the ring append with the consumer held, the replay
// that follows, and how long an idle ring takes to notice one pair.
func (l *ladder) pipelineRungs() error {
	ex, err := newExtrae()
	if err != nil {
		return err
	}
	gt := &gate{Backend: ex}
	g, err := l.runtime(with(gt), dyncapi.Options{Async: true})
	if err != nil {
		return err
	}
	defer g.rt.Close()
	tc := &plainCtx{}

	// A burst fills at most half the default ring, so nothing is dropped.
	burst := balancedPrefix(l.ws4096, dyncapi.DefaultAsyncBuf/2)
	bursts := max(len(l.ws4096)/len(burst), 1)
	var appendNs, replayNs []float64
	runTrials(l.c, 0, func(warm bool) error { //nolint:errcheck // the callback returns nil
		var app, drain time.Duration
		for i := 0; i < bursts; i++ {
			gt.hold()
			t0 := time.Now()
			l.replay(g, tc, burst)
			t1 := time.Now()
			gt.release()
			g.rt.DrainPipeline()
			app, drain = app+t1.Sub(t0), drain+time.Since(t1)
		}
		if !warm {
			events := float64(bursts * len(burst))
			appendNs, replayNs = append(appendNs, float64(app)/events), append(replayNs, float64(drain)/events)
		}
		return nil
	})
	l.r.check(g.rt.DroppedAsync() == 0, "pipeline rung: %d pairs dropped by bursts of %d events in a ring of %d", g.rt.DroppedAsync(), len(burst), dyncapi.DefaultAsyncBuf)
	l.r.Layers["pipeline.append_ns"] = summarize(appendNs)
	l.r.Layers["pipeline.replay_ns"] = minus(summarize(replayNs), l.r.Layers["trace.extrae_ns"])

	var wake []float64
	for i := 0; i < l.c.scaled(60); i++ {
		time.Sleep(2 * time.Millisecond) // long enough for the consumer to go idle
		t0 := time.Now()
		g.xr.Dispatch(tc, l.ids[0], xray.Entry)
		g.xr.Dispatch(tc, l.ids[0], xray.Exit)
		g.rt.DrainPipeline()
		wake = append(wake, usOf(time.Since(t0)))
	}
	l.r.Layers["pipeline.wake_us"] = summarize(wake)
	return nil
}

// controlRungs times the calls a re-selection is made of, each alone, and
// the control plane's handlers without a socket.
func (l *ladder) controlRungs() error {
	short := l.c.short
	var sessS []float64
	for i := 0; i < 3 && (i == 0 || !short); i++ {
		t0 := time.Now()
		if _, err := openfoam(l.c); err != nil {
			return err
		}
		sessS = append(sessS, time.Since(t0).Seconds())
	}
	l.r.Layers["setup.session_s"] = summarize(sessS)

	srcs, sels := map[string]string{}, map[string]*capi.Selection{}
	for _, b := range builtins {
		src, err := experiments.SpecSource(b)
		if err != nil {
			return err
		}
		srcs[b] = src
	}
	var selMs []float64
	err := runTrials(l.c, 0, func(warm bool) error {
		t0 := time.Now()
		for _, b := range builtins {
			sel, err := l.sess.Select(srcs[b])
			if err != nil {
				return err
			}
			sels[b] = sel
		}
		if !warm {
			selMs = append(selMs, msOf(time.Since(t0))/float64(len(builtins)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.Layers["core.select_ms"] = summarize(selMs)

	var inst *capi.Instance
	var startMs []float64
	err = runTrials(l.c, 0, func(warm bool) error {
		if inst != nil {
			inst.Close()
		}
		trace := boundedTrace
		t0 := time.Now()
		var err error
		inst, err = l.sess.Start(sels["kernels"], capi.RunOptions{Backends: []string{string(capi.BackendExtrae)}, Ranks: 2, HTTPWorkers: 1, Trace: &trace})
		if !warm {
			startMs = append(startMs, msOf(time.Since(t0)))
		}
		return err
	})
	if err != nil {
		return err
	}
	defer inst.Close()
	l.r.Layers["capi.start_ms"] = summarize(startMs)

	// Reconfigure kernels <-> mpi. The sled counts of one there-and-back
	// are exact, and must be the same on every trial.
	type counts struct{ patched, unpatched, mprotect, synthetic int64 }
	var reconfMs []float64
	var first, last counts
	err = runTrials(l.c, 0, func(warm bool) error {
		var c counts
		t0 := time.Now()
		for _, b := range builtins {
			rep, err := inst.Reconfigure(sels[b])
			if err != nil {
				return err
			}
			c.patched += rep.Batch.PatchedSleds
			c.unpatched += rep.Batch.UnpatchedSleds
			c.mprotect += rep.Batch.MprotectCalls
			c.synthetic += int64(rep.SyntheticExits)
		}
		if !warm {
			reconfMs = append(reconfMs, msOf(time.Since(t0))/float64(len(builtins)))
			if len(reconfMs) == 1 {
				first = c
			}
			last = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.check(first == last, "reconfigure counts differ between the first and the last trial: %+v vs %+v", first, last)
	l.r.Layers["capi.reconfigure_ms"] = summarize(reconfMs)
	l.r.Layers["reconfig.patched_sleds"] = single(float64(last.patched))
	l.r.Layers["reconfig.unpatched_sleds"] = single(float64(last.unpatched))
	l.r.Layers["reconfig.mprotect_calls"] = single(float64(last.mprotect))
	l.r.Layers["reconfig.synthetic_exits"] = single(float64(last.synthetic))

	var sampUs, backMs []float64
	stride := 2
	err = runTrials(l.c, 0, func(warm bool) error {
		stride = 6 - stride
		t0 := time.Now()
		err := inst.SetSampling(capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: stride}})
		if !warm {
			sampUs = append(sampUs, usOf(time.Since(t0)))
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := inst.SetSampling(capi.SamplingOptions{}); err != nil {
		return err
	}
	l.r.Layers["capi.set_sampling_us"] = summarize(sampUs)
	err = runTrials(l.c, 0, func(warm bool) error {
		t0 := time.Now()
		for _, b := range []capi.Backend{capi.BackendTALP, capi.BackendExtrae} {
			if _, err := inst.SetBackends([]string{string(b)}); err != nil {
				return err
			}
		}
		if !warm {
			backMs = append(backMs, msOf(time.Since(t0))/2)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.Layers["capi.set_backends_ms"] = summarize(backMs)

	// Patch and unpatch every function of a bare xray runtime.
	bare, err := l.runtime(nil, dyncapi.Options{})
	if err != nil {
		return err
	}
	byName, err := l.sess.Build().StaticPackedIDs()
	if err != nil {
		return err
	}
	all := pickIDs(byName, len(byName), workingSetSeed)
	var patchNs []float64
	err = runTrials(l.c, 0, func(warm bool) error {
		t0 := time.Now()
		for _, on := range []bool{true, false} {
			if _, err := bare.xr.PatchBatch(all, on); err != nil {
				return err
			}
		}
		if !warm {
			patchNs = append(patchNs, float64(time.Since(t0))/float64(len(all)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.Layers["xray.patch_ns_per_func"] = summarize(patchNs)

	// The control plane's handlers through a ResponseRecorder: no socket.
	srv := ctl.New(l.sess, inst, "openfoam")
	defer srv.Shutdown()
	serve := func(method, path, body string) (time.Duration, error) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.Code != http.StatusOK {
			return d, fmt.Errorf("%s %s: status %d: %.200s", method, path, w.Code, w.Body.String())
		}
		return d, nil
	}
	var ctlSelMs []float64
	read := map[string][]float64{}
	err = runTrials(l.c, 0, func(warm bool) error {
		var sel time.Duration
		for _, b := range builtins {
			d, err := serve(http.MethodPost, "/v1/select", fmt.Sprintf(`{"builtin":%q}`, b))
			if err != nil {
				return err
			}
			sel += d
		}
		if !warm {
			ctlSelMs = append(ctlSelMs, msOf(sel)/float64(len(builtins)))
		}
		for _, s := range scrapes {
			d, err := serve(http.MethodGet, s.path, "")
			if err != nil {
				return err
			}
			if !warm {
				read[s.path] = append(read[s.path], usOf(d))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	overhead := summarize(ctlSelMs)
	overhead = minus(minus(overhead, l.r.Layers["core.select_ms"]), l.r.Layers["capi.reconfigure_ms"])
	l.r.Layers["ctl.select_overhead_ms"] = overhead
	l.r.Layers["ctl.status_us"] = summarize(read["/v1/status"])
	l.r.Layers["ctl.metrics_us"] = summarize(read["/metrics"])
	l.r.Layers["ctl.selection_us"] = summarize(read["/v1/selection"])
	return nil
}
