package capi_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	capi "capi"
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

	want, err := os.ReadFile("testdata/ladder.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for n := range max(len(gotLines), len(wantLines)) {
		g, w := "<end>", "<end>"
		if n < len(gotLines) {
			g = gotLines[n]
		}
		if n < len(wantLines) {
			w = wantLines[n]
		}
		if g != w {
			t.Fatalf("ladder decisions differ from testdata/ladder.golden at line %d:\n got %s\nwant %s", n+1, g, w)
		}
	}
}

// writeLadder renders one run's decisions, one line per epoch, then the
// ladder in effect at the end and the SLO snapshot's per-endpoint steps.
func writeLadder(b *strings.Builder, mode string, res *capi.RunResult, slo *capi.SLOStatus) {
	for _, ep := range res.AdaptEpochs {
		fmt.Fprintf(b, "%s %d rank=%d endpoint=%q demoted=%v promoted=%v dropped=%v readded=%v reconfigured=%v\n",
			mode, ep.Seq, ep.Rank, ep.Endpoint, ep.Demoted, ep.Promoted, ep.Dropped, ep.Readded, ep.Reconfigured)
	}
	fmt.Fprintf(b, "%s final demoted=%v dropped=%v\n", mode, res.DemotedFuncs, res.DroppedFuncs)
	if slo == nil {
		return
	}
	for _, row := range slo.Endpoints {
		fmt.Fprintf(b, "%s endpoint %q steps=%d demoted=%v dropped=%v\n", mode, row.Endpoint, row.Steps, row.Demoted, row.Dropped)
	}
}
