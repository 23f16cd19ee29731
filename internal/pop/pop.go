// Package pop computes the POP parallel-efficiency metrics TALP reports
// (Garcia-Gasulla et al.; §III-B of the paper): given per-rank useful and
// MPI times over a region, it derives load balance, communication
// efficiency and parallel efficiency.
package pop

// RankTimes is one rank's time breakdown over a monitored region.
type RankTimes struct {
	Useful int64 // virtual ns of computation
	MPI    int64 // virtual ns inside MPI calls (including waiting)
}

// Metrics is the POP efficiency breakdown. All values are in [0, 1] and
// ParallelEfficiency = LoadBalance × CommunicationEfficiency.
type Metrics struct {
	LoadBalance             float64
	CommunicationEfficiency float64
	ParallelEfficiency      float64

	AvgUseful int64 // average useful time across ranks
	MaxUseful int64 // maximum useful time across ranks
	Elapsed   int64 // max over ranks of useful+MPI — the region wall time
}

// Merge concatenates per-process rank sets into one fleet-wide set. Ranks
// from different processes are distinct even when their per-process rank
// IDs collide — every MPI world numbers its ranks from 0 — so merging
// never sums or deduplicates by position: rank 0 of member A and rank 0 of
// member B are two ranks of the federated job. Empty sets contribute
// nothing. The result is a fresh slice; the inputs are never aliased.
func Merge(sets ...[]RankTimes) []RankTimes {
	var n int
	for _, s := range sets {
		n += len(s)
	}
	out := make([]RankTimes, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// Compute derives the POP metrics from per-rank times. With no ranks or an
// empty region all efficiencies are defined as 1 (nothing was lost).
func Compute(times []RankTimes) Metrics {
	if len(times) == 0 {
		return Metrics{LoadBalance: 1, CommunicationEfficiency: 1, ParallelEfficiency: 1}
	}
	var sumUseful, maxUseful, elapsed int64
	for _, t := range times {
		u, m := t.Useful, t.MPI
		if u < 0 {
			u = 0
		}
		if m < 0 {
			m = 0
		}
		sumUseful += u
		if u > maxUseful {
			maxUseful = u
		}
		if u+m > elapsed {
			elapsed = u + m
		}
	}
	m := Metrics{
		AvgUseful: sumUseful / int64(len(times)),
		MaxUseful: maxUseful,
		Elapsed:   elapsed,
	}
	if elapsed == 0 {
		m.LoadBalance, m.CommunicationEfficiency, m.ParallelEfficiency = 1, 1, 1
		return m
	}
	avg := float64(sumUseful) / float64(len(times))
	if maxUseful > 0 {
		m.LoadBalance = avg / float64(maxUseful)
	}
	m.CommunicationEfficiency = float64(maxUseful) / float64(elapsed)
	m.ParallelEfficiency = avg / float64(elapsed)
	return m
}
