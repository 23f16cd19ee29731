package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints the env diff of two result files and, per workload and
// end-to-end metric, whether b is ok, regressed or unresolved against a by
// the bounds of BENCHMARK.json. A pair is unresolved when the spread of
// either side is wider than the bound: then a difference within the bound
// cannot be told from noise. It returns the exit code: 1 on a regression.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	var bm benchmarkFile
	var a, b resultDoc
	for path, into := range map[string]any{"BENCHMARK.json": &bm, args[0]: &a, args[1]: &b} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	if a.Env != b.Env || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("env differs:\n  a: %+v seed %d seconds %g\n  b: %+v seed %d seconds %g\n", a.Env, a.Seed, a.Seconds, b.Env, b.Seed, b.Seconds)
	} else {
		fmt.Println("env: identical")
	}
	byName := map[string]*result{}
	for _, r := range a.Results {
		byName[r.Workload] = r
	}
	code := 0
	for _, rb := range b.Results {
		ra := byName[rb.Workload]
		if ra == nil {
			continue
		}
		if rb.Failed > ra.Failed || !rb.correct() {
			fmt.Printf("%-16s %-18s regressed: %d failed (was %d), %d failed checks\n", rb.Workload, "failed", rb.Failed, ra.Failed, len(rb.Problems))
			code = 1
		}
		for _, m := range bm.EndToEnd {
			da, db := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if da.Median == 0 {
				continue
			}
			worse := (db.Median - da.Median) / da.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := max(da.IQR/da.Median, db.IQR/db.Median); {
			case worse > m.Bound && spread <= m.Bound:
				verdict, code = "regressed", 1
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-16s %-18s %-10s %14.4f -> %14.4f  (%+.1f%% worse, bound %.0f%%)\n", rb.Workload, m.Name, verdict, da.Median, db.Median, 100*worse, 100*m.Bound)
		}
	}
	return code
}
