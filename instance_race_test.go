package capi_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	capi "capi"
	"capi/internal/ic"
)

const quickCoarseSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
coarse(subtract(%mpi_comm, %excluded))
`

// reselectGate is a test backend placed before the measured backends. Once
// armed, the next enter waits until a Reconfigure that returns after that
// enter has applied a re-selection, so the phase it belongs to provably
// runs across one, however fast or loaded the host. A process-wide
// singleton like ctlGate: the registry builds backends by name.
type reselectGate struct {
	armed   atomic.Bool
	mu      sync.Mutex
	waiting chan struct{} // closed by the next re-selection to return
	stuck   atomic.Bool   // a wait timed out: no re-selection landed mid-phase
}

var reselect = &reselectGate{}

func init() {
	capi.RegisterBackend("reselect-gate", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return reselect, nil
	})
}

// applied is called after every Reconfigure that returned: it releases the
// enter waiting for one, if any.
func (g *reselectGate) applied() {
	g.mu.Lock()
	if g.waiting != nil {
		close(g.waiting)
		g.waiting = nil
	}
	g.mu.Unlock()
}

func (g *reselectGate) OnEnter(capi.ThreadCtx, *capi.ResolvedFunc) {
	if !g.armed.CompareAndSwap(true, false) {
		return
	}
	wait := make(chan struct{})
	g.mu.Lock()
	g.waiting = wait
	g.mu.Unlock()
	// Only a safety net: a Reconfigure that cannot land mid-phase would
	// otherwise hang the test instead of failing it.
	select {
	case <-wait:
	case <-time.After(30 * time.Second):
		g.stuck.Store(true)
	}
}

func (g *reselectGate) Name() string                              { return "reselect-gate" }
func (g *reselectGate) OnExit(capi.ThreadCtx, *capi.ResolvedFunc) {}
func (g *reselectGate) InitCost(int) int64                        { return 0 }
func (g *reselectGate) StartPhase(*capi.World) error              { return nil }
func (g *reselectGate) Report() capi.Report                       { return nil }

// TestInstanceConcurrentControlPlane is the regression test for the
// instance-level data races the HTTP control plane depends on: Run used to
// swap mon/meas/traceBuf and bill pendingNs unsynchronized, and TraceReport
// documented "must not be called while a Run is executing". Here two
// goroutines hammer the instance — one flipping the selection back and
// forth with Reconfigure, one scraping Status and the live reports — while
// phases execute. Run with -race.
//
// The reselect gate orders the re-selections against the phases: phase
// 2's first enter waits until a Reconfigure returns, so every run applies
// one mid-phase, where the goroutine used to be able to start only after
// the last phase on a loaded host.
func TestInstanceConcurrentControlPlane(t *testing.T) {
	cases := []struct {
		name     string
		backends []string
	}{
		{"talp", []string{"talp"}},
		{"scorep", []string{"scorep"}},
		{"extrae", []string{"extrae"}},
		// The multi-backend fan-out under the same hammering: every event
		// reaches all three, reports scrape mid-phase per backend.
		{"talp,scorep,extrae", []string{"talp", "scorep", "extrae"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newQuickSession(t)
			wide, err := s.Select(quickSpec)
			if err != nil {
				t.Fatal(err)
			}
			narrow, err := s.Select(quickCoarseSpec)
			if err != nil {
				t.Fatal(err)
			}
			backends := append([]string{"reselect-gate"}, c.backends...)
			inst, err := s.Start(wide, capi.RunOptions{Backends: backends, Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			reselect.stuck.Store(false)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					sel := narrow
					if j%2 == 1 {
						sel = wide
					}
					if _, err := inst.Reconfigure(sel); err != nil {
						t.Errorf("reconfigure: %v", err)
						return
					}
					reselect.applied()
				}
			}()
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					st := inst.Status()
					if st.Patched == 0 || st.Ranks != 2 {
						t.Errorf("status = %+v", st)
						return
					}
					if len(st.Backends) != len(backends) {
						t.Errorf("status backends = %v, want %v", st.Backends, backends)
						return
					}
					inst.Reports()
					inst.ActiveFunctionNames()
				}
			}()

			for phase := 0; phase < 3; phase++ {
				reselect.armed.Store(phase == 1)
				if _, err := inst.Run(); err != nil {
					t.Fatal(err)
				}
			}
			close(done)
			wg.Wait()

			if reselect.stuck.Load() {
				t.Fatal("phase 2 waited 30 s for a re-selection that never landed")
			}
			st := inst.Status()
			if st.Runs != 3 || st.Running {
				t.Fatalf("final status = %+v", st)
			}
			if st.Reconfigs == 0 {
				t.Fatal("no reconfiguration ever applied")
			}
			if st.Events == 0 {
				t.Fatal("no events accumulated")
			}
			if st.DroppedUnpatched != 0 {
				t.Fatalf("spurious sled hits: %d", st.DroppedUnpatched)
			}
			// The per-backend synthetic-exit breakdown always sums to the
			// total, whichever backends closed state.
			var sum int64
			for _, n := range st.SyntheticExitsByBackend {
				sum += n
			}
			if sum != st.SyntheticExits {
				t.Fatalf("per-backend exits %v sum to %d, total says %d",
					st.SyntheticExitsByBackend, sum, st.SyntheticExits)
			}
		})
	}
}

// TestInstanceMultiBackendSyntheticExitsUnderRace is the fan-out side of the
// dangling-enter regression: phases execute on a talp+scorep+extrae mux
// while another goroutine keeps shrinking and widening the selection.
// Every mid-phase shrink catches ranks inside deselected functions, and the
// synthetic exits that close them must be delivered to — and counted for —
// *every* Deselector backend in the mux (extrae keeps no open state and
// must stay absent). Run with -race.
func TestInstanceMultiBackendSyntheticExitsUnderRace(t *testing.T) {
	// A long-enough LULESH phase that mid-phase shrinks reliably catch
	// ranks inside deselected communication functions (the quickstart
	// phases are over before a reconfigure can land without -race).
	s, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 6000}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.Select(quickCoarseSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(wide, capi.RunOptions{Backends: []string{"talp", "scorep", "extrae"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}

	reconfigure := func(sel *capi.Selection) capi.ReconfigReport {
		t.Helper()
		rep, err := inst.Reconfigure(sel)
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
		// Per-reconfiguration invariant: the breakdown sums to the total.
		sum := 0
		for _, n := range rep.SyntheticExitsByBackend {
			sum += n
		}
		if sum != rep.SyntheticExits {
			t.Fatalf("reconfig %d: per-backend %v sums to %d, total %d",
				rep.Seq, rep.SyntheticExitsByBackend, sum, rep.SyntheticExits)
		}
		return rep
	}

	satisfied := func() bool {
		by := inst.Status().SyntheticExitsByBackend
		return by["talp"] > 0 && by["scorep"] > 0
	}

	// Run phases; while one executes, keep shrinking and widening the
	// selection until both stateful backends have closed dangling enters.
	const maxPhases = 5
	for phase := 0; phase < maxPhases && !satisfied(); phase++ {
		phaseDone := make(chan error, 1)
		go func() {
			_, err := inst.Run()
			phaseDone <- err
		}()
		deadline := time.After(60 * time.Second)
		for running := false; !running; {
			select {
			case err := <-phaseDone:
				if err != nil {
					t.Fatal(err)
				}
				phaseDone = nil // phase outran us; try the next one
				running = true
			case <-deadline:
				t.Fatal("phase never started")
			default:
				running = inst.Status().Running
			}
		}
		for phaseDone != nil {
			select {
			case err := <-phaseDone:
				if err != nil {
					t.Fatal(err)
				}
				phaseDone = nil
			default:
				reconfigure(narrow)
				reconfigure(wide)
				if satisfied() {
					// Both backends provably closed state; drain the phase.
					if err := <-phaseDone; err != nil {
						t.Fatal(err)
					}
					phaseDone = nil
				}
			}
		}
	}

	by := inst.Status().SyntheticExitsByBackend
	if by["talp"] == 0 || by["scorep"] == 0 {
		t.Fatalf("synthetic exits not delivered to every mux backend: %v (total %d)",
			by, inst.Status().SyntheticExits)
	}
	if _, ok := by["extrae"]; ok {
		t.Fatalf("extrae (no open state) appears in the breakdown: %v", by)
	}
	var sum int64
	for _, n := range by {
		sum += n
	}
	if sum != inst.Status().SyntheticExits {
		t.Fatalf("breakdown %v sums to %d, total says %d", by, sum, inst.Status().SyntheticExits)
	}
	// All three backends measured the same phases from one event stream.
	reports := inst.Reports()
	for _, name := range []string{"talp", "scorep", "extrae"} {
		if reports[name] == nil {
			t.Fatalf("backend %q produced no report (have %d)", name, len(reports))
		}
	}
}

// TestInstanceConcurrentRunsSerialize: overlapping Run calls must not
// interleave phases — they queue on the instance's run lock.
func TestInstanceConcurrentRunsSerialize(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"talp"}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	const phases = 4
	var wg sync.WaitGroup
	errs := make(chan error, phases)
	for p := 0; p < phases; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := inst.Run()
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := inst.Status().Runs; got != phases {
		t.Fatalf("runs = %d, want %d", got, phases)
	}
}

// raceCountBackend is a registered measurement backend that counts every
// event it is delivered. The factory returns a process-wide singleton so
// the counts survive live backend-set swaps (SetBackends builds fresh
// instances per name) — which is exactly what the conservation assertion
// below needs: every delivered enter, across every swap, lands in one
// counter.
type raceCountBackend struct {
	enters, exits atomic.Int64
}

func (b *raceCountBackend) Name() string { return "race-count" }
func (b *raceCountBackend) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {
	b.enters.Add(1)
}
func (b *raceCountBackend) OnExit(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {
	b.exits.Add(1)
}
func (b *raceCountBackend) InitCost(int) int64           { return 0 }
func (b *raceCountBackend) StartPhase(*capi.World) error { return nil }
func (b *raceCountBackend) Report() capi.Report          { return nil }

var raceCounter = &raceCountBackend{}

func init() {
	capi.RegisterBackend("race-count", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return raceCounter, nil
	})
}

// TestInstanceSamplingConservationUnderRace is the sampling stress test:
// phases execute while four goroutines hammer the instance — one cycling
// the sampling table (live rate changes, min-duration policies, clears),
// one flipping the selection with Reconfigure, one swapping the backend
// set, one scraping status/reports. Run with -race.
//
// The acceptance invariant: across every live rate change, the sampler's
// drop/sample counters are exactly conserved —
//
//	enters == delivered + sampled-out + suppressed + collapsed
//
// — and "delivered" is verified against an *independent* count: the
// registered race-count backend saw exactly the delivered enters, no more,
// no fewer.
func TestInstanceSamplingConservationUnderRace(t *testing.T) {
	raceCounter.enters.Store(0)
	raceCounter.exits.Store(0)
	s, err := capi.NewSession(capi.Lulesh(capi.LuleshOptions{Timesteps: 3000}),
		capi.SessionOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.Select(quickCoarseSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(wide, capi.RunOptions{
		Backends: []string{"race-count"},
		Ranks:    2,
		Sampling: &capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // live rate changes
		defer wg.Done()
		tables := []capi.SamplingOptions{
			{Default: &capi.SamplingPolicy{Stride: 1}},
			{Default: &capi.SamplingPolicy{Stride: 8}},
			{Default: &capi.SamplingPolicy{Stride: 64, MinDurationNs: 500}},
			{Default: &capi.SamplingPolicy{MinDurationNs: 2000, CollapseRedundant: true}},
			{}, // clear: deliver everything, keep accounting
			{Default: &capi.SamplingPolicy{Stride: 3}}, // non-power-of-two
		}
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			if err := inst.SetSampling(tables[j%len(tables)]); err != nil {
				t.Errorf("SetSampling: %v", err)
				return
			}
			// Invalid tables must fail without mutating anything.
			if err := inst.SetSampling(capi.SamplingOptions{Default: &capi.SamplingPolicy{Stride: -1}}); err == nil {
				t.Error("negative stride accepted")
				return
			}
		}
	}()
	go func() { // live re-selection
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			sel := narrow
			if j%2 == 1 {
				sel = wide
			}
			if _, err := inst.Reconfigure(sel); err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()
	go func() { // live backend-set swaps (the singleton rides both sets)
		defer wg.Done()
		sets := [][]string{{"race-count"}, {"race-count", "extrae"}}
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := inst.SetBackends(sets[j%2]); err != nil {
				t.Errorf("set backends: %v", err)
				return
			}
		}
	}()
	go func() { // scrapes
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := inst.Status()
			if st.Sampling != nil {
				c := st.Sampling.Counters
				// Mid-phase the published counters lag per class, so the
				// invariant is only asserted at quiescence below; here we
				// just exercise the concurrent read paths.
				_ = c
			}
			inst.Sampling()
			inst.Reports()
			inst.ActiveFunctionNames()
			inst.Status()
		}
	}()

	for phase := 0; phase < 3; phase++ {
		if _, err := inst.Run(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	st := inst.Status()
	if st.Runs != 3 || st.DroppedUnpatched != 0 {
		t.Fatalf("final status = %+v", st)
	}
	snap := inst.Sampling()
	c := snap.Counters
	if c.Enters == 0 || c.SampledEvents == 0 {
		t.Fatalf("stress run never sampled: %+v", c)
	}
	// (a) Exact conservation across every live rate change.
	if got := c.Delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls; got != c.Enters {
		t.Fatalf("conservation broken: delivered %d + sampled %d + suppressed %d + collapsed %d = %d != enters %d",
			c.Delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, got, c.Enters)
	}
	// (b) "Delivered" is real: the counting backend saw exactly that many
	// enters — every pair the sampler dropped was dropped whole, every
	// pair it admitted arrived, across reconfigures and backend swaps.
	if got := raceCounter.enters.Load(); got != c.Delivered {
		t.Fatalf("backend saw %d enters, sampler says %d delivered", got, c.Delivered)
	}
	if raceCounter.exits.Load() == 0 {
		t.Fatal("no exits delivered at all")
	}
}

// TestStatusNotTorn: Status reads the selection size and the re-selection
// count from one consistent runtime snapshot. One goroutine alternates
// between a one- and a two-function selection, so after r re-selections
// the size is 2 for odd r and 1 for even r; a snapshot that read the size
// after releasing the reconfigure lock could pair one with the other.
func TestStatusNotTorn(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(sel, capi.RunOptions{Backends: []string{"none"}, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := inst.ActiveFunctionNames()
	if len(names) < 2 {
		t.Fatalf("selection has %d functions, want at least 2", len(names))
	}
	one := &capi.Selection{IC: ic.New("quickstart", "torn", names[:1]), Selected: 1}
	two := &capi.Selection{IC: ic.New("quickstart", "torn", names[:2]), Selected: 2}
	if _, err := inst.Reconfigure(two); err != nil {
		t.Fatal(err)
	}
	reads := 400_000
	if raceEnabled {
		reads = 20_000
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			default:
			}
			sel := one
			if j%2 == 1 {
				sel = two
			}
			if _, err := inst.Reconfigure(sel); err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()
	torn := 0
	for range reads {
		st := inst.Status()
		if want := 1 + st.Reconfigs%2; st.ActiveFunctions != want {
			torn++
		}
	}
	close(done)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d status reads paired a selection size with the wrong re-selection count", torn, reads)
	}
}
