package capi_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	capi "capi"
	"capi/internal/vtime"
)

// TestLadderDecisionsGolden pins every decision the adaptation controller
// takes in two seeded runs, both on the discarding "none" backend with
// default tuning: budget mode over one lulesh phase with every sled patched,
// and SLO mode over single-worker webservice traffic whose target is relaxed
// from 1 ms to 1 s halfway, so that narrowing and both kinds of widening
// (promotion, re-adding) occur. The epoch log, the final ladder and the
// SLO snapshot must read exactly as testdata/ladder.golden.
func TestLadderDecisionsGolden(t *testing.T) {
	var got strings.Builder

	sess, err := capi.NewAppSession("lulesh", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(nil, capi.RunOptions{Ranks: 1, PatchAll: true, Adapt: &capi.AdaptOptions{Budget: 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	writeLadder(&got, "budget", res, nil)

	inst, svc := startWebService(t, capi.RunOptions{
		PatchAll:    true,
		Ranks:       1,
		HTTPWorkers: 1,
		Adapt:       &capi.AdaptOptions{SLOTargetP99Ns: int64(time.Millisecond)},
	}, 1)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		if i == 3000 {
			if _, err := inst.Retune(capi.AdaptOptions{SLOTargetP99Ns: int64(time.Second)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// A phase returns the controller's log and ladder; in SLO mode it takes
	// no decision of its own.
	if res, err = inst.Run(); err != nil {
		t.Fatal(err)
	}
	writeLadder(&got, "slo", res, inst.Status().SLO)

	compareGolden(t, "testdata/ladder.golden", got.String())
}

// TestBudgetEpochLogGolden pins budget mode's whole epoch log for one
// openfoam run — every sled patched, under talp, at a budget tight enough to
// demote, drop and promote — at 1, 2 and 4 ranks. Windows close at MPI
// collectives and sum per-rank counts, so the log is a function of the
// program and the world size alone.
func TestBudgetEpochLogGolden(t *testing.T) {
	s, err := capi.NewAppSession("openfoam", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, ranks := range []int{1, 2, 4} {
		res, err := s.Run(nil, capi.RunOptions{Backends: []string{"talp"}, Ranks: ranks, PatchAll: true, Adapt: &capi.AdaptOptions{Budget: 1e-6}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range res.AdaptEpochs {
			fmt.Fprintf(&got, "ranks=%d %d at=%s events=%d overhead=%d budget=%d demoted=%d promoted=%d dropped=%v repatchNs=%d\n",
				ranks, ep.Seq, vtime.FormatSeconds(ep.AtNs), ep.Events, ep.OverheadNs, ep.BudgetNs,
				len(ep.Demoted), len(ep.Promoted), ep.Dropped, ep.Report.VirtualNs)
		}
		fmt.Fprintf(&got, "ranks=%d final reconfigs=%d active=%d demoted=%d dropped=%d T_total=%.6fs\n",
			ranks, res.Reconfigs, res.ActiveFuncs, len(res.DemotedFuncs), len(res.DroppedFuncs), res.TotalSeconds)
	}
	compareGolden(t, "testdata/epochs.golden", got.String())
}

// compareGolden fails at the first line where got differs from the file.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for n := range max(len(gotLines), len(wantLines)) {
		g, w := "<end>", "<end>"
		if n < len(gotLines) {
			g = gotLines[n]
		}
		if n < len(wantLines) {
			w = wantLines[n]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, n+1, g, w)
		}
	}
}

// writeLadder renders one run's decisions, one line per epoch, then the
// ladder in effect at the end and the SLO snapshot's per-endpoint steps.
func writeLadder(b *strings.Builder, mode string, res *capi.RunResult, slo *capi.SLOStatus) {
	for _, ep := range res.AdaptEpochs {
		// Budget decisions name the collective that took them. SLO ones are
		// taken on the request path; their column reads rank=-1, what
		// Epoch.Rank held for them before it went, so the SLO section is
		// unchanged.
		at := "rank=-1"
		if mode == "budget" {
			at = "at=" + vtime.FormatSeconds(ep.AtNs)
		}
		fmt.Fprintf(b, "%s %d %s endpoint=%q demoted=%v promoted=%v dropped=%v readded=%v reconfigured=%v\n",
			mode, ep.Seq, at, ep.Endpoint, ep.Demoted, ep.Promoted, ep.Dropped, ep.Readded, ep.Reconfigured)
	}
	fmt.Fprintf(b, "%s final demoted=%v dropped=%v\n", mode, res.DemotedFuncs, res.DroppedFuncs)
	if slo == nil {
		return
	}
	for _, row := range slo.Endpoints {
		fmt.Fprintf(b, "%s endpoint %q steps=%d demoted=%v dropped=%v\n", mode, row.Endpoint, row.Steps, row.Demoted, row.Dropped)
	}
}
