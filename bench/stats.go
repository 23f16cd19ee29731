package main

import (
	"math"
	"sort"
	"time"
)

// dist summarizes the trials of one timed number. Every reported metric is
// the median across trials; min and IQR travel with it so a reader can tell
// a shift from noise.
type dist struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	IQR    float64 `json:"iqr"`
	Trials int     `json:"trials"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{
		Median: quantile(s, 0.5),
		Min:    s[0],
		IQR:    quantile(s, 0.75) - quantile(s, 0.25),
		Trials: len(s),
	}
}

// single wraps a number that has no trials behind it (an exact count).
func single(v float64) dist { return dist{Median: v, Min: v, Trials: 1} }

// quantile reads the q-quantile from a sorted sample by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// tailQuantile returns the highest of p99.9 / p99 / p95 / p90 that still has
// at least ten samples beyond it, so a tail is never read off a handful of
// points.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.90
}

// minTrials is the floor of the repeatability rule: one discarded warm-up,
// then at least this many fixed-work trials.
const minTrials = 9

// runTrials runs fn once as a discarded warm-up and then as fixed-work
// trials until the stage's share of the budget is spent, but never fewer
// than the floor.
func runTrials(c *config, share float64, fn func(warm bool) error) error {
	if err := fn(true); err != nil {
		return err
	}
	budget, start := c.budget(share), time.Now()
	for n := 0; n < c.floor() || time.Since(start) < budget; n++ {
		if err := fn(false); err != nil {
			return err
		}
	}
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
