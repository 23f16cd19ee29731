// Command scorep-score reproduces the scorep-score workflow the paper
// positions CaPI against (§II-B): run a fully instrumented measurement,
// rank regions by their estimated measurement-overhead share, and emit an
// initial exclusion filter. Unlike CaPI's call-graph-aware selection, this
// is purely metric-driven — "very effective in eliminating overhead but
// [taking] no account of the wider application context".
//
// Usage:
//
//	scorep-score -app lulesh -ranks 4 -o initial.filter
package main

import (
	"flag"
	"fmt"
	"os"

	capi "capi"
	"capi/internal/scorep"
)

func main() {
	var (
		app      = flag.String("app", "quickstart", "workload: quickstart, lulesh or openfoam")
		scale    = flag.Float64("scale", 0.05, "openfoam call-graph scale")
		ranks    = flag.Int("ranks", 4, "simulated MPI ranks")
		minVisit = flag.Int64("min-visits", 0, "only exclude regions with at least this many visits (0 = default)")
		out      = flag.String("o", "", "filter output file (default stdout)")
	)
	flag.Parse()

	session, err := capi.NewAppSession(*app, *scale)
	if err != nil {
		fatal(err)
	}
	// Full instrumentation profile — the expensive survey run.
	res, err := session.Run(nil, capi.RunOptions{
		Backends: []string{"scorep"},
		Ranks:    *ranks,
		PatchAll: true,
	})
	if err != nil {
		fatal(err)
	}
	profile, _ := capi.ReportOf[*capi.Profile](res.Reports, "scorep")
	fmt.Fprintf(os.Stderr, "scorep-score: survey run %.2fs (virtual), %d events, %d regions\n",
		res.TotalSeconds, res.Events, len(profile.Regions))

	opts := scorep.DefaultScoreOptions()
	if *minVisit > 0 {
		opts.MinVisits = *minVisit
	}
	sug, filter := scorep.SuggestFilter(profile, opts)
	fmt.Fprintf(os.Stderr, "scorep-score: excluding %d regions removes ~%d event pairs\n",
		len(sug.Exclude), sug.EventsRemoved)
	for i, name := range sug.Exclude {
		if i >= 10 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(sug.Exclude)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "  EXCLUDE %s\n", name)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := filter.WriteTo(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scorep-score:", err)
	os.Exit(1)
}
