package mpi

import (
	"strings"
	"sync/atomic"
	"testing"

	"capi/internal/vtime"
)

func newTestWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := NewWorld(size, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// countCalls counts the rank's completed calls per operation through a
// PMPI Post hook; read it after the world has run.
func countCalls(r *Rank) map[Op]int64 {
	n := map[Op]int64{}
	r.AddHook(Hook{Post: func(_ *Rank, op Op, _ int, _ int64) { n[op]++ }})
	return n
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0, DefaultCostModel()); err == nil {
		t.Fatal("size 0 should fail")
	}
}

func TestInitFinalizeLifecycle(t *testing.T) {
	w := newTestWorld(t, 4)
	counts := make([]map[Op]int64, 4)
	err := w.Run(func(r *Rank) error {
		counts[r.ID()] = countCalls(r)
		if r.Initialized() {
			t.Error("rank initialized before Init")
		}
		if err := r.Init(); err != nil {
			return err
		}
		if !r.Initialized() {
			t.Error("rank not initialized after Init")
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		if err := r.Finalize(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Ranks() {
		if !r.Finalized() {
			t.Fatal("rank not finalized")
		}
		if n := counts[r.ID()]; n[OpBarrier] != 1 || n[OpInit] != 1 {
			t.Fatalf("call counts = %d/%d", n[OpBarrier], n[OpInit])
		}
		if r.MPITimeTotal() <= 0 {
			t.Fatal("MPI time not accounted")
		}
	}
}

func TestCallBeforeInitFails(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(r *Rank) error { return r.Barrier() })
	if err == nil || !strings.Contains(err.Error(), "before MPI_Init") {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleInitFails(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		return r.Init()
	})
	if err == nil || !strings.Contains(err.Error(), "double MPI_Init") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallAfterFinalizeFails(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if err := r.Finalize(); err != nil {
			return err
		}
		return r.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "after MPI_Finalize") {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectiveSynchronizesClocks(t *testing.T) {
	w := newTestWorld(t, 3)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		// Imbalanced work: rank i computes (i+1)*1ms.
		r.Clock().Advance(int64(r.ID()+1) * vtime.Millisecond)
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the barrier every clock is at least the slowest rank's time.
	var maxBefore int64 = 3 * vtime.Millisecond
	for _, r := range w.Ranks() {
		if r.Clock().Now() < maxBefore {
			t.Fatalf("rank %d clock %d < %d", r.ID(), r.Clock().Now(), maxBefore)
		}
	}
	// All ranks leave the barrier at the same virtual time.
	t0 := w.Rank(0).Clock().Now()
	for _, r := range w.Ranks() {
		if r.Clock().Now() != t0 {
			t.Fatalf("clocks diverge after barrier: %d vs %d", r.Clock().Now(), t0)
		}
	}
}

func TestImbalanceBecomesMPITime(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			r.Clock().Advance(10 * vtime.Millisecond)
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := w.Rank(1), w.Rank(0)
	if fast.MPITimeTotal() <= slow.MPITimeTotal() {
		t.Fatalf("waiting rank should accumulate more MPI time: %d vs %d",
			fast.MPITimeTotal(), slow.MPITimeTotal())
	}
	if fast.MPITimeTotal() < 10*vtime.Millisecond {
		t.Fatalf("fast rank waited %d, want >= 10ms", fast.MPITimeTotal())
	}
}

func TestSendRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	const payload = 1 << 20 // 1 MiB
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			return r.Send(1, 7, payload)
		}
		return r.Recv(0, 7, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver time includes latency + transfer.
	cm := DefaultCostModel()
	minArrival := cm.Latency + int64(float64(payload)*cm.NsPerByte)
	if w.Rank(1).Clock().Now() < minArrival {
		t.Fatalf("receiver clock %d < %d", w.Rank(1).Clock().Now(), minArrival)
	}
}

func TestSendRecvInvalidRank(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			return r.Send(5, 0, 8)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("err = %v", err)
	}
}

func TestSendrecvRing(t *testing.T) {
	const n = 4
	w := newTestWorld(t, n)
	counts := make([]map[Op]int64, n)
	err := w.Run(func(r *Rank) error {
		counts[r.ID()] = countCalls(r)
		if err := r.Init(); err != nil {
			return err
		}
		right := (r.ID() + 1) % n
		left := (r.ID() + n - 1) % n
		for i := 0; i < 3; i++ {
			if err := r.Sendrecv(right, left, i, 4096); err != nil {
				return err
			}
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Ranks() {
		if c := counts[r.ID()]; c[OpSend] != 3 || c[OpRecv] != 3 {
			t.Fatalf("rank %d counts: send %d recv %d", r.ID(), c[OpSend], c[OpRecv])
		}
	}
}

func TestCollectivesCostScalesWithBytes(t *testing.T) {
	small := newTestWorld(t, 2)
	big := newTestWorld(t, 2)
	run := func(w *World, bytes int) int64 {
		if err := w.Run(func(r *Rank) error {
			if err := r.Init(); err != nil {
				return err
			}
			return r.Allreduce(bytes)
		}); err != nil {
			t.Fatal(err)
		}
		return w.Rank(0).Clock().Now()
	}
	tSmall := run(small, 8)
	tBig := run(big, 1<<22)
	if tBig <= tSmall {
		t.Fatalf("large allreduce should cost more: %d vs %d", tBig, tSmall)
	}
}

func TestAllCollectiveKinds(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if err := r.Reduce(64); err != nil {
			return err
		}
		if err := r.Bcast(64); err != nil {
			return err
		}
		if err := r.Allgather(64); err != nil {
			return err
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPMPIHooks(t *testing.T) {
	w := newTestWorld(t, 2)
	var pre, post atomic.Int64
	err := w.Run(func(r *Rank) error {
		r.AddHook(Hook{
			Pre: func(rk *Rank, op Op, bytes int) { pre.Add(1) },
			Post: func(rk *Rank, op Op, bytes int, elapsed int64) {
				if elapsed < 0 {
					t.Error("negative elapsed")
				}
				post.Add(1)
			},
		})
		if err := r.Init(); err != nil {
			return err
		}
		if err := r.Allreduce(8); err != nil {
			return err
		}
		return r.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Load() != 6 || post.Load() != 6 { // 3 calls x 2 ranks
		t.Fatalf("hook counts pre=%d post=%d, want 6/6", pre.Load(), post.Load())
	}
}

func TestHookElapsedIncludesWait(t *testing.T) {
	w := newTestWorld(t, 2)
	var slowRankWait atomic.Int64
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.AddHook(Hook{Post: func(rk *Rank, op Op, bytes int, elapsed int64) {
				if op == OpBarrier {
					slowRankWait.Store(elapsed)
				}
			}})
		}
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			r.Clock().Advance(5 * vtime.Millisecond)
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if slowRankWait.Load() < 5*vtime.Millisecond {
		t.Fatalf("PMPI elapsed %d should include the 5ms wait", slowRankWait.Load())
	}
}

func TestPanicAborts(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			panic("boom")
		}
		// Rank 1 blocks in a barrier that can never complete; the abort
		// must wake it.
		return r.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") && !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorAbortsBlockedRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if err := r.Init(); err != nil {
			return err
		}
		if r.ID() == 0 {
			return r.Send(3, 0, 1) // invalid: aborts the world
		}
		return r.Recv(0, 99, 1) // never satisfied; must be woken by abort
	})
	if err == nil {
		t.Fatal("expected abort error")
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() []int64 {
		w := newTestWorld(t, 4)
		if err := w.Run(func(r *Rank) error {
			if err := r.Init(); err != nil {
				return err
			}
			for i := 0; i < 10; i++ {
				r.Clock().Advance(int64(r.ID()*13+i) * vtime.Microsecond)
				if err := r.Allreduce(8); err != nil {
					return err
				}
			}
			return r.Finalize()
		}); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 4)
		for i, r := range w.Ranks() {
			out[i] = r.Clock().Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic virtual time: %v vs %v", a, b)
		}
	}
}
