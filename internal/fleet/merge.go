package fleet

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"sort"
	"time"

	"capi/internal/ctl"
	"capi/internal/pop"
	"capi/internal/talp"
)

// MemberStatus is one row of the GET /v1/fleet/status member table: the
// registry's view of the member plus its own /v1/status document (absent,
// with Error set, when the member could not be reached).
type MemberStatus struct {
	Member          string  `json:"member"`
	URL             string  `json:"url"`
	Static          bool    `json:"static,omitempty"`
	Healthy         bool    `json:"healthy"`
	LastSeenSeconds float64 `json:"lastSeenSeconds"`
	// TTLSeconds is the time left before heartbeat eviction; omitted for
	// static members, which are never evicted.
	TTLSeconds    float64             `json:"ttlSeconds,omitempty"`
	EventsRelayed int64               `json:"eventsRelayed"`
	Error         string              `json:"error,omitempty"`
	Status        *ctl.StatusResponse `json:"status,omitempty"`
}

// Rollup sums the fleet's live counters over every reachable member.
// DetachedBackends and OpenBreakers surface the circuit-breaker state
// cluster-wide: a single member tripping a breaker shows up here without
// reading N status documents.
type Rollup struct {
	Members          int      `json:"members"`
	Reachable        int      `json:"reachable"`
	Runs             int      `json:"runs"`
	Events           int64    `json:"events"`
	Reconfigs        int      `json:"reconfigs"`
	ActiveFunctions  int      `json:"activeFunctions"`
	DroppedAsync     int64    `json:"droppedAsync"`
	DroppedPanicked  int64    `json:"droppedPanicked"`
	DetachedBackends []string `json:"detachedBackends,omitempty"`
	// OpenBreakers lists "member/backend" for every breaker currently
	// tripped or detached somewhere in the fleet.
	OpenBreakers []string `json:"openBreakers,omitempty"`
	// PipelineHints relays every member's ring-sizing hint keyed by
	// member name, so back-pressure anywhere in the fleet is visible from
	// the coordinator.
	PipelineHints map[string]string `json:"pipelineHints,omitempty"`
}

// FleetStatusResponse is the GET /v1/fleet/status document.
type FleetStatusResponse struct {
	Coordinator  CoordinatorStatus `json:"coordinator"`
	Rollup       Rollup            `json:"rollup"`
	MemberStatus []MemberStatus    `json:"members"`
}

// CoordinatorStatus is the coordinator's own counters.
type CoordinatorStatus struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Registrations  int64   `json:"registrations"`
	Evictions      int64   `json:"evictions"`
	Fanouts        int64   `json:"fanouts"`
	FanoutFailures int64   `json:"fanoutFailures"`
	SSEClients     int     `json:"sseClients"`
}

// memberStatuses fetches every member's /v1/status document: the rows of
// the fleet status table, and the read model the merged /metrics is
// rendered from.
func (s *Server) memberStatuses(members []memberSnap) []MemberStatus {
	now := time.Now()
	return eachMember(members, func(m memberSnap) MemberStatus {
		row := MemberStatus{
			Member:          m.Name,
			URL:             m.URL,
			Static:          m.Static,
			Healthy:         m.Healthy,
			LastSeenSeconds: now.Sub(m.LastSeen).Seconds(),
			EventsRelayed:   m.Events,
		}
		if !m.Static && !m.Deadline.IsZero() {
			row.TTLSeconds = time.Until(m.Deadline).Seconds()
		}
		var st ctl.StatusResponse
		if code, err := s.memberJSON(m, "/v1/status", &st); err != nil {
			row.Error = err.Error()
			if code != http.StatusOK {
				row.Healthy = false
			}
			return row
		}
		row.Status, row.Healthy = &st, true
		return row
	})
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	rows := s.memberStatuses(s.reg.snapshot())
	roll := Rollup{Members: len(rows)}
	for _, row := range rows {
		if row.Status == nil {
			continue
		}
		roll.Reachable++
		st := row.Status
		roll.Runs += st.Runs
		roll.Events += st.Events
		roll.Reconfigs += st.Reconfigs
		roll.ActiveFunctions += st.ActiveFunctions
		roll.DroppedAsync += st.DroppedAsync
		roll.DroppedPanicked += st.DroppedPanicked
		for _, b := range st.DetachedBackends {
			roll.DetachedBackends = append(roll.DetachedBackends, row.Member+"/"+b)
		}
		for _, b := range st.Breaker {
			if b.Tripped {
				roll.OpenBreakers = append(roll.OpenBreakers, row.Member+"/"+b.Backend)
			}
		}
		if st.PipelineHint != "" {
			if roll.PipelineHints == nil {
				roll.PipelineHints = map[string]string{}
			}
			roll.PipelineHints[row.Member] = st.PipelineHint
		}
	}
	sort.Strings(roll.DetachedBackends)
	sort.Strings(roll.OpenBreakers)

	ctl.WriteJSON(w, http.StatusOK, FleetStatusResponse{
		Coordinator: CoordinatorStatus{
			UptimeSeconds:  time.Since(s.started).Seconds(),
			Registrations:  s.reg.registrations.Load(),
			Evictions:      s.reg.evictions.Load(),
			Fanouts:        s.fanouts.Load(),
			FanoutFailures: s.fanoutFailures.Load(),
			SSEClients:     s.hub.Clients(),
		},
		Rollup:       roll,
		MemberStatus: rows,
	})
}

// BackendReports groups one backend's reports across the fleet: the raw
// per-member report documents, verbatim, keyed by member name.
type BackendReports struct {
	Kind    string                     `json:"kind"`
	Reports map[string]json.RawMessage `json:"reports"`
}

// RegionPOP is one region's fleet-wide POP breakdown, re-derived from the
// members' per-rank TALP times. Derived efficiencies cannot be averaged
// across members — a mean of load balances is not the load balance of the
// merged job — so the coordinator concatenates every member's rank set
// (pop.Merge) and recomputes the metrics over the federated set
// (pop.Compute). Members lists who contributed; a region missing on some
// member simply has fewer ranks.
type RegionPOP struct {
	Name                    string   `json:"name"`
	Members                 []string `json:"members"`
	Ranks                   int      `json:"ranks"`
	Visits                  int64    `json:"visits"`
	ElapsedNs               int64    `json:"elapsedNs"`
	AvgUsefulNs             int64    `json:"avgUsefulNs"`
	MaxUsefulNs             int64    `json:"maxUsefulNs"`
	LoadBalance             float64  `json:"loadBalance"`
	CommunicationEfficiency float64  `json:"communicationEfficiency"`
	ParallelEfficiency      float64  `json:"parallelEfficiency"`
}

// FleetReportResponse is the GET /v1/fleet/report document.
type FleetReportResponse struct {
	Members  []string                  `json:"members"`
	Failed   map[string]string         `json:"failed,omitempty"`
	Backends map[string]BackendReports `json:"backends"`
	// WorldSize is the federated rank count (sum of member TALP worlds).
	WorldSize int         `json:"worldSize,omitempty"`
	Regions   []RegionPOP `json:"regions,omitempty"`
}

func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) {
	members := s.reg.snapshot()
	if len(members) == 0 {
		ctl.WriteErr(w, http.StatusServiceUnavailable, "fleet has no members")
		return
	}
	type fetched struct {
		member string
		resp   *ctl.ReportResponse
		err    string
	}
	results := eachMember(members, func(m memberSnap) fetched {
		var rep ctl.ReportResponse
		code, err := s.memberJSON(m, "/v1/report", &rep)
		switch {
		case code == http.StatusNotFound:
			return fetched{member: m.Name, err: "no report yet"}
		case err != nil:
			return fetched{member: m.Name, err: err.Error()}
		}
		return fetched{member: m.Name, resp: &rep}
	})

	out := FleetReportResponse{Backends: map[string]BackendReports{}}
	type regionAcc struct {
		members []string
		visits  int64
		sets    [][]pop.RankTimes
	}
	regions := map[string]*regionAcc{}
	for _, res := range results {
		if res.resp == nil {
			if out.Failed == nil {
				out.Failed = map[string]string{}
			}
			out.Failed[res.member] = res.err
			continue
		}
		out.Members = append(out.Members, res.member)
		for backend, entry := range res.resp.Reports {
			group, ok := out.Backends[backend]
			if !ok {
				group = BackendReports{Kind: entry.Kind, Reports: map[string]json.RawMessage{}}
				out.Backends[backend] = group
			}
			group.Reports[res.member] = entry.Report
			if backend != "talp" {
				continue
			}
			var doc talp.Document
			if err := json.Unmarshal(entry.Report, &doc); err != nil {
				continue // per-member document stays readable verbatim
			}
			out.WorldSize += doc.WorldSize
			for _, reg := range doc.Regions {
				acc := regions[reg.Name]
				if acc == nil {
					acc = &regionAcc{}
					regions[reg.Name] = acc
				}
				acc.members = append(acc.members, res.member)
				acc.visits += reg.Visits
				set := make([]pop.RankTimes, len(reg.PerRank))
				for k, rt := range reg.PerRank {
					set[k] = pop.RankTimes{Useful: rt.UsefulNs, MPI: rt.MPINs}
				}
				acc.sets = append(acc.sets, set)
			}
		}
	}

	for _, name := range slices.Sorted(maps.Keys(regions)) {
		acc := regions[name]
		merged := pop.Merge(acc.sets...)
		m := pop.Compute(merged)
		out.Regions = append(out.Regions, RegionPOP{
			Name:                    name,
			Members:                 acc.members,
			Ranks:                   len(merged),
			Visits:                  acc.visits,
			ElapsedNs:               m.Elapsed,
			AvgUsefulNs:             m.AvgUseful,
			MaxUsefulNs:             m.MaxUseful,
			LoadBalance:             m.LoadBalance,
			CommunicationEfficiency: m.CommunicationEfficiency,
			ParallelEfficiency:      m.ParallelEfficiency,
		})
	}

	code := http.StatusOK
	if len(out.Members) == 0 {
		code = http.StatusBadGateway
	}
	ctl.WriteJSON(w, code, out)
}
