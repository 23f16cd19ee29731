// Package ic defines the instrumentation configuration (IC): the output of
// the CaPI selection pipeline and the input of both the static
// instrumentation plugin and the DynCaPI runtime (Fig. 3 of the paper).
//
// Two on-disk representations are supported: a native JSON format carrying
// provenance, which is read and written, and the Score-P region-filter
// format the paper emits for compatibility with the Score-P instrumenter,
// which is only written.
package ic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Config is an instrumentation configuration: the set of functions to
// instrument, plus provenance for reports.
//
// The two sorted, duplicate-free lists are the whole IC: Contains and
// ContainsID search them, and no index repeats them. A Config is immutable
// once a constructor (New, WithIncludeIDs, ReadJSON) returned it, and
// therefore safe to share between goroutines — one Selection may start
// several instances, and an instance keeps the IC for its TTL revert timer
// while handlers read it. Do not write to Include or IncludeIDs; derive a
// changed copy instead.
type Config struct {
	// App is the application the IC was computed for.
	App string `json:"app,omitempty"`
	// Spec names the selection specification that produced the IC.
	Spec string `json:"spec,omitempty"`
	// Include lists the functions to instrument, sorted.
	Include []string `json:"include"`
	// IncludeIDs optionally lists packed XRay function IDs to instrument,
	// sorted, determined statically from the build. This is the extension
	// the paper proposes for hidden DSO symbols (§VI-B(a)): the runtime can
	// patch these without resolving any name at start-up.
	IncludeIDs []int32 `json:"includeIDs,omitempty"`
}

// New returns a Config over the given function names (deduplicated, sorted,
// without the empty name).
func New(app, spec string, include []string) *Config {
	names := slices.Compact(slices.Sorted(slices.Values(include)))
	if len(names) > 0 && names[0] == "" {
		names = names[1:]
	}
	if len(names) == 0 {
		names = nil // an empty IC encodes as "include": null
	}
	// Clipped, so an append by one holder cannot land in storage another
	// holder shares.
	return &Config{App: app, Spec: spec, Include: slices.Clip(names)}
}

// Len returns the number of included functions.
func (c *Config) Len() int { return len(c.Include) }

// Contains reports whether the named function is instrumented.
func (c *Config) Contains(name string) bool {
	_, ok := slices.BinarySearch(c.Include, name)
	return ok
}

// ContainsID reports whether the packed function ID is instrumented via
// the static ID list.
func (c *Config) ContainsID(id int32) bool {
	_, ok := slices.BinarySearch(c.IncludeIDs, id)
	return ok
}

// Diff compares two configurations by included function name. It returns
// the names only b includes (added) and the names only a includes (removed),
// both sorted. A nil configuration is treated as empty, so Diff(nil, cfg)
// reports every included name as added. The DynCaPI runtime uses this to
// report what a live re-selection changed.
func Diff(a, b *Config) (added, removed []string) {
	var as, bs []string
	if a != nil {
		as = a.Include
	}
	if b != nil {
		bs = b.Include
	}
	// Both lists are sorted and free of duplicates: one merge pass.
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		switch c := strings.Compare(as[i], bs[j]); {
		case c < 0:
			removed = append(removed, as[i])
			i++
		case c > 0:
			added = append(added, bs[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(added, bs[j:]...), append(removed, as[i:]...)
}

// WithIncludeIDs returns a copy of c whose IncludeIDs are exactly the given
// packed IDs (sorted, deduplicated); the copy shares c's Include. With IDs
// attached, the DynCaPI runtime can patch hidden DSO functions it cannot
// resolve by name — the §VI-B(a) extension (Session.AttachStaticIDs). The
// adaptive controller uses it to carry the IDs of functions it keeps,
// including ones that were only ever selected by ID.
func (c *Config) WithIncludeIDs(ids []int32) *Config {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return &Config{App: c.App, Spec: c.Spec, Include: c.Include, IncludeIDs: slices.Clip(slices.Compact(ids))}
}

// WriteJSON serializes the configuration as JSON.
func (c *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadJSON parses a JSON configuration.
func ReadJSON(r io.Reader) (*Config, error) {
	var c Config
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("ic: parsing JSON config: %w", err)
	}
	return New(c.App, c.Spec, c.Include).WithIncludeIDs(c.IncludeIDs), nil
}

// Score-P filter file markers.
const (
	scorepBegin = "SCOREP_REGION_NAMES_BEGIN"
	scorepEnd   = "SCOREP_REGION_NAMES_END"
)

// WriteScorePFilter writes the configuration in the Score-P region-filter
// format: everything excluded, the included functions listed explicitly.
func (c *Config) WriteScorePFilter(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# IC for app %q, spec %q (generated by capi-go)\n", c.App, c.Spec)
	fmt.Fprintln(bw, scorepBegin)
	fmt.Fprintln(bw, "  EXCLUDE *")
	for _, name := range c.Include {
		fmt.Fprintf(bw, "  INCLUDE MANGLED %s\n", name)
	}
	fmt.Fprintln(bw, scorepEnd)
	return bw.Flush()
}
