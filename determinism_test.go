package capi_test

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	capi "capi"
	"capi/internal/experiments"
	"capi/internal/mpi"
)

// runJSON runs one phase and returns its result as JSON, wall time zeroed:
// everything left is virtual time and counts.
func runJSON(t *testing.T, s *capi.Session, sel *capi.Selection, opts capi.RunOptions) string {
	t.Helper()
	res, err := s.Run(sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.WallSeconds = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMultiRankDeterministic: a multi-rank run's output depends only on
// the workload and the cost model, never on how the rank goroutines are
// scheduled — with the budget controller adapting the selection too. Every
// cell is run repeatedly under GOMAXPROCS 1 and 4 and must come out
// byte-identical each time.
func TestMultiRankDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	reps := 3
	if raceEnabled {
		reps = 2 // an openfoam run takes about a second under the detector
	}
	spec, err := experiments.SpecSource("mpi")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []struct {
		name  string
		scale float64
	}{{"quickstart", 0}, {"lulesh", 0}, {"openfoam", 0.02}} {
		t.Run(app.name, func(t *testing.T) {
			s, err := capi.NewAppSession(app.name, app.scale)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := s.Select(spec)
			if err != nil {
				t.Fatal(err)
			}
			cell := func(sel *capi.Selection, opts capi.RunOptions) {
				want := ""
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					for rep := 0; rep < reps; rep++ {
						got := runJSON(t, s, sel, opts)
						if want == "" {
							want = got
						} else if got != want {
							t.Fatalf("%v ranks %d adapt %v: GOMAXPROCS %d run %d differs from the first run\n--- got ---\n%s\n--- want ---\n%s",
								opts.Backends, opts.Ranks, opts.Adapt != nil, procs, rep, got, want)
						}
					}
				}
			}
			for _, backends := range [][]string{{"talp"}, {"scorep"}, {"extrae"}, {"talp", "scorep"}} {
				for _, ranks := range []int{2, 4} {
					cell(sel, capi.RunOptions{Backends: backends, Ranks: ranks})
				}
			}
			if app.name != "openfoam" {
				return
			}
			// Budget mode: every sled patched and a budget tight enough to
			// demote, drop and promote; the epoch log is part of the result.
			for _, ranks := range []int{2, 4} {
				cell(nil, capi.RunOptions{Backends: []string{"talp"}, Ranks: ranks, PatchAll: true, Adapt: &capi.AdaptOptions{Budget: 1e-6}})
			}
		})
	}
}

// orderGate is a test backend placed before talp in the Mux. It forces
// which rank enters each function first: the other rank's first entry of
// a function waits until the first rank has entered it and made progress
// since (a later event or an MPI call), so the first rank's entry has
// crossed talp by then.
type orderGate struct {
	mu       sync.Mutex
	first    int
	progress [2]int64        // per rank: gate events plus MPI calls seen
	passed   map[int32]int64 // first rank's progress after its first entry
	seen     [2]map[int32]bool
	stuck    bool // a wait timed out: the forced order was not achieved
}

var gate = &orderGate{}

func init() {
	capi.RegisterBackend("order-gate", func(cfg capi.BackendConfig) (capi.MeasurementBackend, error) {
		return gate, gate.StartPhase(cfg.World)
	})
}

// reset arms the gate for one run in which rank first enters first.
func (g *orderGate) reset(first int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.first = first
	g.progress = [2]int64{}
	g.passed = map[int32]int64{}
	g.seen = [2]map[int32]bool{{}, {}}
	g.stuck = false
}

func (g *orderGate) step(rank int) {
	g.mu.Lock()
	g.progress[rank]++
	g.mu.Unlock()
}

func (g *orderGate) Name() string        { return "order-gate" }
func (g *orderGate) Report() capi.Report { return nil }
func (g *orderGate) InitCost(int) int64  { return 0 }
func (g *orderGate) StartPhase(w *capi.World) error {
	for _, r := range w.Ranks() {
		r.AddHook(mpi.Hook{Pre: func(rk *mpi.Rank, _ mpi.Op, _ int) { g.step(rk.ID()) }})
	}
	return nil
}

func (g *orderGate) OnExit(tc capi.ThreadCtx, _ *capi.ResolvedFunc) { g.step(tc.RankID()) }

func (g *orderGate) OnEnter(tc capi.ThreadCtx, fn *capi.ResolvedFunc) {
	rank, id := tc.RankID(), fn.PackedID
	g.mu.Lock()
	g.progress[rank]++
	firstEntry := !g.seen[rank][id]
	g.seen[rank][id] = true
	if rank == g.first && firstEntry {
		g.passed[id] = g.progress[rank]
	}
	g.mu.Unlock()
	if rank == g.first || !firstEntry {
		return
	}
	// Poll with a deadline, so an order the workload cannot take fails the
	// test instead of hanging it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Microsecond) {
		g.mu.Lock()
		mark, ok := g.passed[id]
		done := ok && g.progress[g.first] > mark
		if !done && time.Now().After(deadline) {
			g.stuck = true
			done = true
		}
		g.mu.Unlock()
		if done {
			return
		}
	}
}

// TestRankOrderDoesNotMoveTALP forces each rank order on every function's
// first entry — rank 0 first, then rank 1 first — and requires the two
// runs' results to be byte-identical: TALP registers a region per rank, so
// which rank arrives first charges no one extra.
func TestRankOrderDoesNotMoveTALP(t *testing.T) {
	s := newQuickSession(t)
	sel, err := s.Select(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	for first := range out {
		gate.reset(first)
		out[first] = runJSON(t, s, sel, capi.RunOptions{Backends: []string{"order-gate", "talp", "scorep"}, Ranks: 2})
		if gate.stuck {
			t.Fatalf("rank %d first: a gated entry timed out", first)
		}
	}
	if out[0] != out[1] {
		t.Fatalf("rank order changed the result\n--- rank 0 first ---\n%s\n--- rank 1 first ---\n%s", out[0], out[1])
	}
}
