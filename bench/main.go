// Command bench is the repository's benchmark: five workloads that drive the
// system from outside through its public functions, end-to-end metrics that
// BENCHMARK.json gates, and per-layer metrics from a separate traced run.
// README.md has the workloads, the metric glossary and the rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

var workloads = []workload{
	{"dispatch_inline", "hot path only (xray, lookup, sampler, guard, extrae) over a 4,096-ID Zipf working set; pipeline, net/http, ctl and fleet do nothing", setupDispatch(false)},
	{"dispatch_async", "same stream through the async ring and consumer: a pipeline change shows here and must not move dispatch_inline, a lookup change must move both", setupDispatch(true)},
	{"serve_http", "real net/http in front of middleware.Service: request framing is most of a request, so a dispatch gain shows attenuated and a middleware gain only here", setupServe},
	{"control_plane", "POST /v1/select until the last sled is patched, against live traffic: selection engine, Reconfigure and PatchBatch do the work, per-event cost is a bystander", setupControl},
	{"fleet_fanout", "coordinator over three members: fan-out, /metrics merge and status rollup do their own work only here, and the slowest member sets the time", setupFleet},
}

// outDir receives result.json and trace.json.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of every generator")
		seconds = flag.Float64("seconds", 10, "timed budget of each workload, in seconds")
		trace   = flag.Int("trace", 0, "1: the traced run (spans, the layer ladder, per-layer metrics)")
		short   = flag.Bool("short", false, "every workload at ~1/20 size, nothing asserted about time")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	doc, err := runAll(*name, *seed, *seconds, *trace == 1, *short)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err == nil {
		err = writeJSON(filepath.Join(outDir, "result.json"), doc)
	}
	if err == nil && doc.tr != nil {
		err = doc.tr.write(filepath.Join(outDir, "trace.json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, r := range doc.Results {
		if !r.correct() || r.Failed != 0 {
			os.Exit(1)
		}
	}
}

// resultDoc is bench/out/result.json.
type resultDoc struct {
	Env     envBlock  `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Traced  bool      `json:"traced"`
	Results []*result `json:"results"`

	tr *tracer
}

func runAll(only string, seed int64, seconds float64, traced, short bool) (*resultDoc, error) {
	if short {
		seconds = 0 // the floor of trials per stage and nothing more
	}
	doc := &resultDoc{Env: readEnv(), Seed: seed, Seconds: seconds, Traced: traced}
	var rungs *result
	if traced {
		doc.tr = newTracer()
		rungs = newResult("ladder")
		fmt.Fprintln(os.Stderr, "bench: ladder ...")
		if err := runLadder(&config{seed: seed, seconds: seconds, short: short, tr: doc.tr}, rungs); err != nil {
			return nil, err
		}
	}
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		clearPeakRSS()
		var r *result
		var err error
		if traced {
			r, err = runTraced(w, seed, seconds, short, doc.tr, rungs)
		} else {
			r, err = runWorkload(w, &config{seed: seed, seconds: seconds, short: short})
		}
		if err != nil {
			return nil, err
		}
		printResult(r, traced)
		doc.Results = append(doc.Results, r)
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	return doc, nil
}

// runTraced is the traced run of one workload: once untraced, which also
// takes the counts the layer report needs, once with spans recorded, each on
// half the budget. The rungs of the ladder are copied in, so that one result
// carries every per-layer metric.
func runTraced(w workload, seed int64, seconds float64, short bool, tr *tracer, rungs *result) (*result, error) {
	plain, err := runWorkload(w, &config{seed: seed, seconds: seconds / 2, short: short, layers: true})
	if err != nil {
		return nil, err
	}
	spanned, err := runWorkload(w, &config{seed: seed, seconds: seconds / 2, short: short, tr: tr})
	if err != nil {
		return nil, err
	}
	r := plain
	r.Attempted += spanned.Attempted
	r.Failed += spanned.Failed
	r.Problems = append(append(r.Problems, spanned.Problems...), rungs.Problems...)
	for name, d := range spanned.Layers {
		if _, ok := r.Layers[name]; !ok {
			r.Layers[name] = d
		}
	}
	for name, d := range rungs.Layers {
		r.Layers[name] = d
	}
	r.Layers["trace.overhead_frac"] = single(spanned.EndToEnd["latency_p50_us"].Median/plain.EndToEnd["latency_p50_us"].Median - 1)
	if do, ok := r.Layers["middleware.do_us"]; ok {
		inline, _ := rungs.Notes["rung_extrae_inline_ns"].(float64)
		r.Layers["middleware.dispatch_share"] = single(r.Layers["middleware.events_per_req"].Median * inline / (do.Median * 1e3))
	}
	return r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the failed
// checks, and last the one-line JSON object the benchmark driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printResult(r *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}

	fmt.Printf("== %s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.correct())
	show := func(defs []metricDef, got map[string]dist, emit bool) {
		for _, m := range defs {
			d := got[m.Name] // a layer the workload bypassed did nothing: 0
			fmt.Printf("   %-28s %16.4f %-6s (min %.4f, iqr %.4f, %d trials)\n", m.Name, d.Median, m.Unit, d.Min, d.IQR, d.Trials)
			if emit {
				line.Metrics[m.Name] = value{d.Median, m.Unit}
			}
		}
	}
	show(endToEnd, r.EndToEnd, !traced)
	if traced {
		show(perLayer, r.Layers, true)
	} else {
		// What the workload measured of its layers on the way, for the
		// reader; the per-layer report proper is the traced run's.
		var own []metricDef
		for _, m := range perLayer {
			if _, ok := r.Layers[m.Name]; ok {
				own = append(own, m)
			}
		}
		show(own, r.Layers, false)
	}
	for _, p := range r.Problems {
		fmt.Printf("   FAILED CHECK: %s\n", p)
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}
