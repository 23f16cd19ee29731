package talp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"capi/internal/vtime"
)

// WriteText renders the report in the spirit of TALP's end-of-run text
// summary: one block per monitoring region with the POP metrics.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "######### Monitoring Regions Summary (%d ranks) #########\n", r.WorldSize); err != nil {
		return err
	}
	for _, reg := range r.Regions {
		if _, err := fmt.Fprintf(w, "### Region: %s\n", reg.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "    Elapsed Time:        %s\n", vtime.FormatSeconds(reg.Elapsed)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "    Visits:              %d\n", reg.Visits); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "    Parallel Efficiency: %.3f\n", reg.Metrics.ParallelEfficiency); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "      Communication Eff: %.3f\n", reg.Metrics.CommunicationEfficiency); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "      Load Balance:      %.3f\n", reg.Metrics.LoadBalance); err != nil {
			return err
		}
	}
	if len(r.FailedPreInit) > 0 {
		if _, err := fmt.Fprintf(w, "# %d region(s) could not be registered (MPI not initialized)\n", len(r.FailedPreInit)); err != nil {
			return err
		}
	}
	if len(r.FailedEntries) > 0 {
		if _, err := fmt.Fprintf(w, "# %d region(s) failed on re-entry\n", len(r.FailedEntries)); err != nil {
			return err
		}
	}
	return nil
}

// Document is the report's JSON form — what WriteJSON writes and a
// federated aggregator (internal/fleet) decodes. Each region carries its
// ranks' raw time breakdown beside the derived metrics: efficiencies cannot
// be merged across processes, only the underlying times can.
type Document struct {
	WorldSize     int              `json:"worldSize"`
	Regions       []regionDocument `json:"regions"`
	FailedPreInit []string         `json:"failedPreInit,omitempty"`
	FailedEntries []string         `json:"failedEntries,omitempty"`
}

type regionDocument struct {
	Name        string         `json:"name"`
	Visits      int64          `json:"visits"`
	ElapsedNs   int64          `json:"elapsedNs"`
	ParallelEff float64        `json:"parallelEfficiency"`
	CommEff     float64        `json:"communicationEfficiency"`
	LoadBalance float64        `json:"loadBalance"`
	AvgUsefulNs int64          `json:"avgUsefulNs"`
	MaxUsefulNs int64          `json:"maxUsefulNs"`
	PerRank     []rankDocument `json:"perRank"`
}

type rankDocument struct {
	UsefulNs int64 `json:"usefulNs"`
	MPINs    int64 `json:"mpiNs"`
}

// WriteJSON renders the report as JSON (the runtime-queryable form the
// paper mentions: schedulers/resource managers can consume the metrics).
func (r *Report) WriteJSON(w io.Writer) error {
	out := Document{WorldSize: r.WorldSize, FailedPreInit: r.FailedPreInit, FailedEntries: r.FailedEntries}
	for _, reg := range r.Regions {
		rd := regionDocument{
			Name:        reg.Name,
			Visits:      reg.Visits,
			ElapsedNs:   reg.Elapsed,
			ParallelEff: reg.Metrics.ParallelEfficiency,
			CommEff:     reg.Metrics.CommunicationEfficiency,
			LoadBalance: reg.Metrics.LoadBalance,
			AvgUsefulNs: reg.Metrics.AvgUseful,
			MaxUsefulNs: reg.Metrics.MaxUseful,
			PerRank:     make([]rankDocument, 0, len(reg.PerRank)),
		}
		for _, rt := range reg.PerRank {
			rd.PerRank = append(rd.PerRank, rankDocument{UsefulNs: rt.Useful, MPINs: rt.MPI})
		}
		out.Regions = append(out.Regions, rd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MarshalJSON makes the report its own JSON value: the WriteJSON document.
func (r *Report) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Region returns the report entry for the named region, or nil.
func (r *Report) Region(name string) *RegionReport {
	for i := range r.Regions {
		if r.Regions[i].Name == name {
			return &r.Regions[i]
		}
	}
	return nil
}
