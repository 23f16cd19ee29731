package scorep

import "sort"

// This file implements the scorep-score-style filter generation the paper
// describes in §II-B: using a previous profiling run to find functions
// suspected to contribute most of the measurement overhead — small,
// frequently called functions — and emitting a filter that excludes them.

// ScoreOptions tunes filter generation.
type ScoreOptions struct {
	// MinVisits: only frequently called regions are worth excluding.
	MinVisits int64
}

// maxAvgExclusivePerVisit: regions whose average exclusive time per visit
// is below this are overhead-dominated candidates. The threshold tracks the
// workload generators' call-compression scaling (workload.scaleWork): one
// simulated visit stands in for many real calls, so "small" means
// sub-millisecond in simulated time.
const maxAvgExclusivePerVisit = 800 * 1000 // 0.8 ms

// DefaultScoreOptions mirror scorep-score's spirit: exclude small regions
// visited very often.
func DefaultScoreOptions() ScoreOptions {
	return ScoreOptions{MinVisits: 500}
}

// Suggestion is the outcome of a scorep-score run.
type Suggestion struct {
	// Exclude lists the regions recommended for filtering, most costly
	// (by estimated overhead share) first.
	Exclude []string
	// EventsRemoved estimates how many enter/exit event pairs the filter
	// eliminates.
	EventsRemoved int64
}

// SuggestFilter analyses a profile and returns an exclusion recommendation
// plus a ready-to-use runtime filter.
func SuggestFilter(p *Profile, opts ScoreOptions) (*Suggestion, *Filter) {
	type cand struct {
		name   string
		visits int64
	}
	var cands []cand
	for _, r := range p.Regions {
		if r.Name == "UNKNOWN" || r.Visits < opts.MinVisits || r.Visits == 0 {
			continue
		}
		if r.Exclusive/r.Visits <= maxAvgExclusivePerVisit {
			cands = append(cands, cand{name: r.Name, visits: r.Visits})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].visits != cands[j].visits {
			return cands[i].visits > cands[j].visits
		}
		return cands[i].name < cands[j].name
	})
	s := &Suggestion{}
	f := NewFilter()
	for _, c := range cands {
		s.Exclude = append(s.Exclude, c.name)
		s.EventsRemoved += c.visits
		f.Exclude(c.name)
	}
	return s, f
}
