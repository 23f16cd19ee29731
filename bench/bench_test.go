package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	capi "capi"
	"capi/middleware"
)

// TestStreamDeterministic: the same seed gives byte-identical event streams,
// another seed gives another stream, and nesting is balanced at depth <=
// maxDepth.
func TestStreamDeterministic(t *testing.T) {
	ids := indexIDs(512)
	a, b := genStream(7, ids, 1<<14), genStream(7, ids, 1<<14)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, genStream(8, ids, 1<<14)) {
		t.Fatal("different seeds, same stream")
	}
	if len(a) != 1<<14 {
		t.Fatalf("stream has %d events, want %d", len(a), 1<<14)
	}
	var stack []int32
	deepest := 0
	for i, v := range a {
		if v >= 0 {
			stack = append(stack, v)
			deepest = max(deepest, len(stack))
			continue
		}
		if len(stack) == 0 || stack[len(stack)-1] != ^v {
			t.Fatalf("event %d exits %d, open frames %v", i, ^v, stack)
		}
		stack = stack[:len(stack)-1]
	}
	if len(stack) != 0 || deepest > maxDepth || deepest < 2 {
		t.Fatalf("stream ends %d deep, deepest %d (max %d)", len(stack), deepest, maxDepth)
	}
	if p := balancedPrefix(a, 1000); len(p) == 0 || len(p) > 1000 {
		t.Fatalf("balanced prefix of %d events", len(p))
	}
}

// TestRoutesDeterministic: the same seed gives the same route sequence and
// the same working set.
func TestRoutesDeterministic(t *testing.T) {
	sess, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Start(nil, capi.RunOptions{PatchAll: true, Ranks: 1, HTTPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	svc, err := middleware.New(inst, sess.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := genRoutes(3, 500, svc.RandomRoute), genRoutes(3, 500, svc.RandomRoute)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different route sequences")
	}
	if reflect.DeepEqual(a, genRoutes(4, 500, svc.RandomRoute)) {
		t.Fatal("different seeds, same route sequence")
	}
	byName := map[string]int32{}
	for i := 0; i < 100; i++ {
		byName[string(rune('a'+i%26))+string(rune('a'+i/26))] = int32(rand.Int31())
	}
	if !reflect.DeepEqual(pickIDs(byName, 40, 5), pickIDs(byName, 40, 5)) {
		t.Fatal("same seed, different working sets")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the same
// workloads, the same metrics with the same units and directions, and the
// benchmark's own directory as its only path.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end-to-end", bm.EndToEnd, endToEnd, true)
	same("per-layer", bm.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, untraced and traced, at about 1/20 size.
// Nothing is asserted about time; every oracle check must hold, every
// operation must succeed, and every declared metric must be reported.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		doc, err := runAll("", 1, 1, traced, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Results) != len(workloads) {
			t.Fatalf("%d results for %d workloads", len(doc.Results), len(workloads))
		}
		for _, r := range doc.Results {
			if !r.correct() || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, failed checks %q", r.Workload, traced, r.Attempted, r.Failed, r.Problems)
			}
			for _, m := range endToEnd {
				if d, ok := r.EndToEnd[m.Name]; !ok || d.Median <= 0 {
					t.Errorf("%s (traced %v): end-to-end metric %s = %v", r.Workload, traced, m.Name, d.Median)
				}
			}
			known := map[string]bool{}
			for _, m := range perLayer {
				known[m.Name] = true
			}
			for name := range r.Layers {
				if !known[name] {
					t.Errorf("%s: layer metric %s is reported but not declared", r.Workload, name)
				}
			}
			if traced {
				for _, name := range []string{"xray.dispatch_nil_ns", "trace.extrae_ns", "core.select_ms", "xray.patch_ns_per_func"} {
					if r.Layers[name].Median <= 0 {
						t.Errorf("%s: rung %s = %v", r.Workload, name, r.Layers[name].Median)
					}
				}
			}
		}
		if traced && len(doc.tr.durations("ladder")) != 1 {
			t.Error("traced run recorded no ladder span")
		}
	}
}
