package callgraph

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
)

// The on-disk format follows the spirit of MetaCG's annotated call-graph
// files (Lehr et al., TAPAS 2020): a top-level generator stamp and a map of
// function records with callee lists and metadata.

type fileFormat struct {
	MetaCG fileStamp             `json:"_MetaCG"`
	Main   string                `json:"main,omitempty"`
	CG     map[string]fileRecord `json:"_CG"`
}

type fileStamp struct {
	Version   string `json:"version"`
	Generator string `json:"generator"`
}

type fileRecord struct {
	Callees []string `json:"callees"`
	Display string   `json:"displayName,omitempty"`
	Meta    *Meta    `json:"meta,omitempty"`
}

// FormatVersion is the serialization version written by WriteJSON.
const FormatVersion = "2.0"

// WriteJSON serializes the graph in the MetaCG-style format.
func (g *Graph) WriteJSON(w io.Writer) error {
	ff := fileFormat{
		MetaCG: fileStamp{Version: FormatVersion, Generator: "capi-go"},
		Main:   g.Main,
		CG:     make(map[string]fileRecord, g.Len()),
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		callees := g.Callees(n)
		rec := fileRecord{Callees: make([]string, 0, len(callees))}
		for _, c := range callees {
			rec.Callees = append(rec.Callees, g.nodes[c].Name)
		}
		sort.Strings(rec.Callees)
		if n.Display != n.Name {
			rec.Display = n.Display
		}
		if m := g.Meta(n); m != (Meta{}) {
			rec.Meta = &m
		}
		ff.CG[n.Name] = rec
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&ff)
}

// ReadJSON parses a graph from the MetaCG-style format.
func ReadJSON(r io.Reader) (*Graph, error) {
	var ff fileFormat
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ff); err != nil {
		return nil, fmt.Errorf("callgraph: parsing graph file: %w", err)
	}
	if ff.MetaCG.Version == "" {
		return nil, fmt.Errorf("callgraph: missing _MetaCG stamp")
	}
	b := NewBuilder("", ff.Main)
	// Declare nodes in sorted name order for deterministic IDs.
	names := slices.Sorted(maps.Keys(ff.CG))
	for _, name := range names {
		rec := ff.CG[name]
		var meta Meta
		if rec.Meta != nil {
			meta = *rec.Meta
		}
		id := b.Add(name, meta) // names are unique: always a new node
		if rec.Display != "" {
			b.Decls[id].Display = rec.Display
		}
	}
	for _, name := range names {
		for _, callee := range ff.CG[name].Callees {
			b.Edge(name, callee)
		}
	}
	return b.Graph(), nil
}
