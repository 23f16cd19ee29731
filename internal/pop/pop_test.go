package pop

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPerfectlyBalanced(t *testing.T) {
	m := Compute([]RankTimes{{Useful: 100, MPI: 0}, {Useful: 100, MPI: 0}})
	if !almost(m.LoadBalance, 1) || !almost(m.CommunicationEfficiency, 1) || !almost(m.ParallelEfficiency, 1) {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Elapsed != 100 || m.AvgUseful != 100 || m.MaxUseful != 100 {
		t.Fatalf("times = %+v", m)
	}
}

func TestImbalance(t *testing.T) {
	// Rank 0 computes 100, rank 1 computes 50 and waits 50 in MPI.
	m := Compute([]RankTimes{{Useful: 100, MPI: 0}, {Useful: 50, MPI: 50}})
	if !almost(m.LoadBalance, 0.75) {
		t.Fatalf("LB = %v, want 0.75", m.LoadBalance)
	}
	if !almost(m.CommunicationEfficiency, 1.0) {
		t.Fatalf("CommEff = %v, want 1.0", m.CommunicationEfficiency)
	}
	if !almost(m.ParallelEfficiency, 0.75) {
		t.Fatalf("PE = %v", m.ParallelEfficiency)
	}
}

func TestCommunicationLoss(t *testing.T) {
	// Balanced compute but both ranks spend 100 in MPI.
	m := Compute([]RankTimes{{Useful: 100, MPI: 100}, {Useful: 100, MPI: 100}})
	if !almost(m.LoadBalance, 1) {
		t.Fatalf("LB = %v", m.LoadBalance)
	}
	if !almost(m.CommunicationEfficiency, 0.5) {
		t.Fatalf("CommEff = %v, want 0.5", m.CommunicationEfficiency)
	}
	if !almost(m.ParallelEfficiency, 0.5) {
		t.Fatalf("PE = %v", m.ParallelEfficiency)
	}
}

func TestEmptyInputs(t *testing.T) {
	m := Compute(nil)
	if !almost(m.ParallelEfficiency, 1) {
		t.Fatalf("empty metrics = %+v", m)
	}
	m = Compute([]RankTimes{{}, {}})
	if !almost(m.ParallelEfficiency, 1) || m.Elapsed != 0 {
		t.Fatalf("zero-region metrics = %+v", m)
	}
}

func TestAllMPINoUseful(t *testing.T) {
	m := Compute([]RankTimes{{Useful: 0, MPI: 100}})
	if m.LoadBalance != 0 || m.CommunicationEfficiency != 0 || m.ParallelEfficiency != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestNegativeClamped(t *testing.T) {
	m := Compute([]RankTimes{{Useful: -5, MPI: 10}})
	if m.MaxUseful != 0 || m.Elapsed != 10 {
		t.Fatalf("metrics = %+v", m)
	}
}

// Multi-process merge: the fleet control plane concatenates per-member
// rank sets, so rank IDs colliding across members must stay distinct
// ranks, empty members must contribute nothing, and the negative-input
// clamping must survive the merge unchanged.

func TestMergeConcatenates(t *testing.T) {
	a := []RankTimes{{Useful: 100}, {Useful: 50, MPI: 50}}
	b := []RankTimes{{Useful: 80, MPI: 20}}
	got := Merge(a, b)
	want := []RankTimes{{Useful: 100}, {Useful: 50, MPI: 50}, {Useful: 80, MPI: 20}}
	if len(got) != len(want) {
		t.Fatalf("merged %d ranks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The merge is a copy: mutating it must not write through to a member's
	// own report.
	got[0].Useful = 0
	if a[0].Useful != 100 {
		t.Fatal("Merge aliased a member's slice")
	}
}

func TestMergeDuplicateRankIDs(t *testing.T) {
	// Two members each report a rank 0 and a rank 1 (every MPI world
	// numbers from 0). The merged set has FOUR ranks — concatenation, never
	// positional summing — so a balanced pair plus an imbalanced pair must
	// yield the exact four-rank Compute result.
	memberA := []RankTimes{{Useful: 100}, {Useful: 100}}
	memberB := []RankTimes{{Useful: 100}, {Useful: 60, MPI: 40}}
	got := Compute(Merge(memberA, memberB))
	want := Compute([]RankTimes{{Useful: 100}, {Useful: 100}, {Useful: 100}, {Useful: 60, MPI: 40}})
	if got != want {
		t.Fatalf("merged metrics = %+v, want %+v", got, want)
	}
	// avg useful = 360/4 = 90, max = 100 → LB = 0.9 over four ranks; a
	// positional sum would have seen two ranks of 200 and 160+40.
	if !almost(got.LoadBalance, 0.9) {
		t.Fatalf("LB = %v, want 0.9 (4 distinct ranks)", got.LoadBalance)
	}
}

func TestMergeEmptyMember(t *testing.T) {
	// A member with no ranks for the region (never entered it) must not
	// dilute the averages: merging it is the identity.
	live := []RankTimes{{Useful: 100}, {Useful: 50, MPI: 50}}
	if got, want := Compute(Merge(live, nil)), Compute(live); got != want {
		t.Fatalf("empty member changed metrics: %+v vs %+v", got, want)
	}
	if got, want := Compute(Merge(nil, live, []RankTimes{})), Compute(live); got != want {
		t.Fatalf("empty members changed metrics: %+v vs %+v", got, want)
	}
	// All members empty: the defined-as-1 convention of Compute holds.
	if got := Compute(Merge(nil, nil)); !almost(got.ParallelEfficiency, 1) {
		t.Fatalf("all-empty merge = %+v", got)
	}
}

func TestMergeClampingPreserved(t *testing.T) {
	// A member reporting a negative accumulator (a bug upstream) is clamped
	// by Compute; the merge must feed it through unmodified so the clamping
	// semantics are identical with and without federation.
	a := []RankTimes{{Useful: -5, MPI: 10}}
	b := []RankTimes{{Useful: 20, MPI: -3}}
	got := Compute(Merge(a, b))
	want := Compute([]RankTimes{{Useful: -5, MPI: 10}, {Useful: 20, MPI: -3}})
	if got != want {
		t.Fatalf("merged metrics = %+v, want %+v", got, want)
	}
	if got.MaxUseful != 20 || got.Elapsed != 20 {
		t.Fatalf("clamping lost in merge: %+v", got)
	}
}

// Properties: metrics are within [0,1] and PE = LB × CommEff.
func TestMetricsProperties(t *testing.T) {
	f := func(raw [][2]uint32) bool {
		times := make([]RankTimes, len(raw))
		for i, r := range raw {
			times[i] = RankTimes{Useful: int64(r[0]), MPI: int64(r[1])}
		}
		m := Compute(times)
		for _, v := range []float64{m.LoadBalance, m.CommunicationEfficiency, m.ParallelEfficiency} {
			if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
				return false
			}
		}
		return math.Abs(m.ParallelEfficiency-m.LoadBalance*m.CommunicationEfficiency) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
