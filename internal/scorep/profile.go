package scorep

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"capi/internal/vtime"
)

// RegionProfile is the flat (per-region) view aggregated over all ranks.
type RegionProfile struct {
	Name      string
	Visits    int64
	Inclusive int64 // summed over ranks
	Exclusive int64 // summed over ranks
}

// CallTreeNode is one line of the merged call-tree dump (rank 0's tree;
// per-rank trees are structurally identical for SPMD codes).
type CallTreeNode struct {
	Depth     int
	Name      string
	Visits    int64
	Inclusive int64
}

// CallEdge is one observed caller→callee pair from a measured profile.
type CallEdge struct{ Caller, Callee string }

// Profile is the aggregated measurement result.
type Profile struct {
	Ranks          int
	Regions        []RegionProfile
	CallTree       []CallTreeNode
	Edges          []CallEdge // observed caller→callee pairs: the call trees' parent→child links
	UnknownEvents  int64
	FilteredEvents int64
}

// Region returns the flat profile of the named region, or nil. It scans
// Regions: a profile keeps no index of its own.
func (p *Profile) Region(name string) *RegionProfile {
	for i := range p.Regions {
		if p.Regions[i].Name == name {
			return &p.Regions[i]
		}
	}
	return nil
}

// Profile aggregates the per-rank call trees into a flat profile, a call
// tree and the observed call-edge list: every parent→child link of a rank's
// call tree, by region. It must be called after the measured run completed.
func (m *Measurement) Profile() *Profile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p := &Profile{Ranks: len(m.ranks)}

	flat := map[int]*RegionProfile{}
	for _, rs := range m.ranks {
		rs.mu.Lock()
		p.UnknownEvents += rs.unknownEvents
		p.FilteredEvents += rs.filteredEvents
		for i := range rs.nodes {
			n := &rs.nodes[i]
			rp, ok := flat[n.region]
			if !ok {
				rp = &RegionProfile{Name: m.regions[n.region]}
				flat[n.region] = rp
			}
			rp.Visits += n.visits
			rp.Inclusive += n.inclusive
			// Exclusive = inclusive − children's inclusive.
			excl := n.inclusive
			for _, ci := range n.children {
				excl -= rs.nodes[ci].inclusive
			}
			rp.Exclusive += excl
			if n.parent >= 0 {
				p.Edges = append(p.Edges, CallEdge{m.regions[rs.nodes[n.parent].region], m.regions[n.region]})
			}
		}
		rs.mu.Unlock()
	}
	for _, rp := range flat {
		p.Regions = append(p.Regions, *rp)
	}
	sort.Slice(p.Regions, func(i, j int) bool {
		if p.Regions[i].Inclusive != p.Regions[j].Inclusive {
			return p.Regions[i].Inclusive > p.Regions[j].Inclusive
		}
		return p.Regions[i].Name < p.Regions[j].Name
	})
	slices.SortFunc(p.Edges, func(a, b CallEdge) int {
		return cmp.Or(cmp.Compare(a.Caller, b.Caller), cmp.Compare(a.Callee, b.Callee))
	})
	p.Edges = slices.Compact(p.Edges) // each caller→callee pair once

	// Call tree from rank 0.
	rs := m.ranks[0]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var walk func(kids map[int]int, depth int)
	walk = func(kids map[int]int, depth int) {
		idxs := make([]int, 0, len(kids))
		for _, idx := range kids {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(a, b int) bool {
			na, nb := rs.nodes[idxs[a]], rs.nodes[idxs[b]]
			if na.inclusive != nb.inclusive {
				return na.inclusive > nb.inclusive
			}
			return m.regions[na.region] < m.regions[nb.region]
		})
		for _, idx := range idxs {
			n := rs.nodes[idx]
			p.CallTree = append(p.CallTree, CallTreeNode{
				Depth:     depth,
				Name:      m.regions[n.region],
				Visits:    n.visits,
				Inclusive: n.inclusive,
			})
			walk(n.children, depth+1)
		}
	}
	walk(rs.rootKids, 0)
	return p
}

// WriteText renders the flat profile like a cube/scorep report summary.
func (p *Profile) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-12s %-14s %-14s region\n", "visits", "incl(sum)", "excl(sum)"); err != nil {
		return err
	}
	for _, r := range p.Regions {
		if _, err := fmt.Fprintf(w, "%-12d %-14s %-14s %s\n",
			r.Visits, vtime.FormatSeconds(r.Inclusive), vtime.FormatSeconds(r.Exclusive), r.Name); err != nil {
			return err
		}
	}
	if p.UnknownEvents > 0 {
		if _, err := fmt.Fprintf(w, "# %d events from unresolved addresses\n", p.UnknownEvents); err != nil {
			return err
		}
	}
	return nil
}

// WriteCallTree renders the call-path view.
func (p *Profile) WriteCallTree(w io.Writer) error {
	for _, n := range p.CallTree {
		for i := 0; i < n.Depth; i++ {
			if _, err := io.WriteString(w, "  "); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s  visits=%d incl=%s\n", n.Name, n.Visits, vtime.FormatSeconds(n.Inclusive)); err != nil {
			return err
		}
	}
	return nil
}
