package capi_test

import (
	"sync"
	"testing"
	"time"

	capi "capi"
	"capi/internal/mpi"
)

// mpiCall is one MPI call as a rank saw it: the clock when the rank
// entered it and when it left.
type mpiCall struct {
	op            mpi.Op
	bytes         int
	arrive, leave int64
}

// callClocks is a test backend that records every rank's collectives. It
// measures nothing else and charges nothing.
type callClocks struct {
	mu    sync.Mutex
	calls [][]mpiCall // per rank, in call order
}

var clocks = &callClocks{}

func init() {
	capi.RegisterBackend("call-clocks", func(cfg capi.BackendConfig) (capi.MeasurementBackend, error) {
		return clocks, clocks.StartPhase(cfg.World)
	})
}

func (c *callClocks) Name() string                               { return "call-clocks" }
func (c *callClocks) Report() capi.Report                        { return nil }
func (c *callClocks) InitCost(int) int64                         { return 0 }
func (c *callClocks) OnEnter(capi.ThreadCtx, *capi.ResolvedFunc) {}
func (c *callClocks) OnExit(capi.ThreadCtx, *capi.ResolvedFunc)  {}

func (c *callClocks) StartPhase(w *capi.World) error {
	c.mu.Lock()
	c.calls = make([][]mpiCall, w.Size())
	c.mu.Unlock()
	for _, r := range w.Ranks() {
		var arrive int64 // written and read on the rank's goroutine only
		r.AddHook(mpi.Hook{
			Pre: func(rk *mpi.Rank, _ mpi.Op, _ int) { arrive = rk.Clock().Now() },
			Post: func(rk *mpi.Rank, op mpi.Op, bytes int, _ int64) {
				if !isCollective(op) {
					return
				}
				c.mu.Lock()
				c.calls[rk.ID()] = append(c.calls[rk.ID()], mpiCall{op, bytes, arrive, rk.Clock().Now()})
				c.mu.Unlock()
			},
		})
	}
	return nil
}

// TestDecidingCollectiveChargesEveryRank: the budget controller decides at
// a collective while every rank waits there, and every rank pays the
// decision's re-patch as it leaves. So at each collective all ranks leave
// at one clock value, and that value lies past the collective's own cost
// by exactly the re-patch charge of the decision taken there (none at the
// others).
func TestDecidingCollectiveChargesEveryRank(t *testing.T) {
	s, err := capi.NewAppSession("openfoam", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil, capi.RunOptions{Backends: []string{"call-clocks"}, Ranks: 4, PatchAll: true, Adapt: &capi.AdaptOptions{Budget: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	charge := map[int64]int64{} // collective time → re-patch charge
	for _, ep := range res.AdaptEpochs {
		if ep.Report.VirtualNs > 0 {
			charge[ep.AtNs] = ep.Report.VirtualNs
		}
	}
	if len(charge) == 0 {
		t.Fatal("no decision re-patched anything: the test exercises nothing")
	}

	type shape struct {
		op    mpi.Op
		bytes int
	}
	cost := map[shape]int64{} // leave − collective time − charge, per shape
	calls, perCall := clocks.calls, mpi.DefaultCostModel().PerCall
	charged := 0
	for k, first := range calls[0] {
		at := int64(0) // the collective's time: the latest rank's arrival
		for r := range calls {
			if k >= len(calls[r]) || calls[r][k].op != first.op {
				t.Fatalf("rank %d's collective %d is not rank 0's %s", r, k, first.op)
			}
			at = max(at, calls[r][k].arrive+perCall)
		}
		for r := range calls {
			if got := calls[r][k].leave; got != first.leave {
				t.Fatalf("collective %d (%s): rank %d leaves at %d, rank 0 at %d", k, first.op, r, got, first.leave)
			}
		}
		if charge[at] > 0 {
			charged++
		}
		key := shape{first.op, first.bytes}
		extra := first.leave - at - charge[at]
		if want, seen := cost[key]; seen && extra != want {
			t.Fatalf("collective %d (%s, %d bytes): left %d ns after its time, want %d (its cost plus the %d ns charge)",
				k, first.op, first.bytes, first.leave-at, want+charge[at], charge[at])
		}
		cost[key] = extra
	}
	if charged != len(charge) {
		t.Fatalf("%d re-patching decisions, %d found at a collective", len(charge), charged)
	}
}

// TestSyntheticExitsInsideCollective: a deselection taken at a collective
// closes the TALP and Score-P regions the ranks hold open with synthetic
// exits, delivered from inside the collective while every rank waits
// there. That must neither deadlock — the hook runs under the rendezvous,
// and the backends take their per-rank locks — nor race (CI runs the suite
// under -race).
func TestSyntheticExitsInsideCollective(t *testing.T) {
	s, err := capi.NewAppSession("openfoam", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	done := make(chan struct{})
	var res *capi.RunResult
	go func() {
		defer close(done)
		res, err = s.Run(nil, capi.RunOptions{Backends: []string{"talp", "scorep"}, Ranks: ranks, PatchAll: true, Adapt: &capi.AdaptOptions{Budget: 1e-6}})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the adaptive run never finished: a collective hook deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	synth := map[string]int{}
	for _, ep := range res.AdaptEpochs {
		for b, n := range ep.Report.SyntheticExitsByBackend {
			synth[b] += n
		}
	}
	// One drop catches every rank inside the dropped function.
	if synth["talp"] != ranks || synth["scorep"] != ranks {
		t.Fatalf("synthetic exits %v, want %d each from talp and scorep", synth, ranks)
	}
}

// isCollective reports whether the MPI operation synchronizes all ranks.
func isCollective(op mpi.Op) bool {
	switch op {
	case mpi.OpBarrier, mpi.OpAllreduce, mpi.OpReduce, mpi.OpBcast, mpi.OpAllgather, mpi.OpInit, mpi.OpFinalize:
		return true
	}
	return false
}
