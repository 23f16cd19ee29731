package fleet_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	capi "capi"
	"capi/internal/ctl"
	"capi/middleware"
)

// checkExposition is the well-formedness check of a /metrics body: every
// sample sits under the one HELP and the one TYPE line of its family,
// _bucket/_sum/_count only under a histogram TYPE, and each histogram's
// le="+Inf" bucket equals its _count.
func checkExposition(t *testing.T, what, text string) {
	t.Helper()
	helps, types := map[string]int{}, map[string]string{}
	inf, count := map[string]string{}, map[string]string{}
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helps[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Errorf("%s: TYPE of %s repeats", what, name)
			}
			types[name], cur = typ, name
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		if i := strings.LastIndexByte(line, ' '); strings.Contains(line, "{") {
			series, value = line[:i], line[i+1:]
		}
		name, labels, _ := strings.Cut(series, "{")
		family := name
		if types[cur] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suffix)
			}
		}
		if family != cur {
			t.Errorf("%s: sample %q is not under its family's TYPE line (under %q)", what, line, cur)
			continue
		}
		if helps[family] != 1 {
			t.Errorf("%s: family %s has %d HELP lines, want 1", what, family, helps[family])
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && strings.Contains(labels, `le="+Inf"`):
			inf[family+"{"+strings.Replace(labels, `,le="+Inf"`, "", 1)] = value
		case strings.HasSuffix(name, "_count") && types[cur] == "histogram":
			count[family+"{"+labels] = value
		}
	}
	if len(inf) != len(count) {
		t.Errorf("%s: %d +Inf buckets for %d _count samples", what, len(inf), len(count))
	}
	for series, n := range count {
		if inf[series] != n {
			t.Errorf(`%s: %s le="+Inf" is %q, _count is %q`, what, series, inf[series], n)
		}
	}
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return string(body)
}

// newWebMember is a member that has served HTTP traffic, so its status
// carries the per-endpoint section and its exposition the histogram.
func newWebMember(t *testing.T) *testMember {
	t.Helper()
	session, err := capi.NewAppSession("webservice", 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(nil, capi.RunOptions{PatchAll: true, Backends: []string{"extrae"}, Ranks: 2, HTTPWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := middleware.New(inst, session.Program(), capi.WebserviceEndpoints(), middleware.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for range 50 {
		if _, err := svc.Do(svc.RandomRoute(rng)); err != nil {
			t.Fatal(err)
		}
	}
	cp := ctl.New(session, inst, "webservice")
	m := &testMember{ts: httptest.NewServer(cp), cp: cp, inst: inst}
	t.Cleanup(m.kill)
	return m
}

// TestMetricsWellFormed runs the checker over a member's exposition, over
// the golden one (every optional section present) and over the
// coordinator's with two members serving HTTP endpoints; the coordinator
// must carry each member sample with member="<name>" as its first label,
// histogram header included.
func TestMetricsWellFormed(t *testing.T) {
	w0, w1 := newWebMember(t), newWebMember(t)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, w0.URL(), "w0")
	register(t, coordTS.URL, w1.URL(), "w1")

	golden, err := os.ReadFile("../ctl/testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	checkExposition(t, "golden", string(golden))
	fleetText := scrape(t, coordTS.URL)
	checkExposition(t, "coordinator", fleetText)
	if !strings.Contains(fleetText, "# TYPE capi_http_request_latency_ms histogram\n") {
		t.Error("coordinator lost the histogram TYPE line")
	}

	// Each member's own build times arrive member-labelled, nothing merged.
	for _, m := range []string{"w0", "w1"} {
		for _, stage := range []string{"validate", "callgraph", "compile", "total"} {
			if !strings.Contains(fleetText, `capi_session_build_seconds{member="`+m+`",stage="`+stage+`"} `) {
				t.Errorf("coordinator /metrics lacks member %s's session build stage %s", m, stage)
			}
		}
	}

	// The members are idle, so two scrapes agree on every series but
	// capi_sse_clients, which moves when the coordinator's tailer connects.
	memberText := scrape(t, w0.URL())
	checkExposition(t, "member", memberText)
	for _, line := range strings.Split(strings.TrimSpace(memberText), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "capi_sse_clients") {
			continue
		}
		want := strings.Replace(line, " ", `{member="w0"} `, 1)
		if name, rest, ok := strings.Cut(line, "{"); ok {
			want = name + `{member="w0",` + rest
		}
		if !strings.Contains(fleetText, want+"\n") {
			t.Errorf("coordinator /metrics lacks %q", want)
		}
	}
}

// TestMetricsMemberDown: a dead member shows as capi_fleet_member_up 0
// and contributes nothing else; the scrape still answers 200 with the live
// member's series intact.
func TestMetricsMemberDown(t *testing.T) {
	m0, m1 := newMember(t, 1), newMember(t, 1)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m0.URL(), "m0")
	register(t, coordTS.URL, m1.URL(), "m1")
	m1.kill()

	text := scrape(t, coordTS.URL)
	checkExposition(t, "coordinator", text)
	for _, want := range []string{
		"capi_fleet_members 2\n",
		`capi_fleet_member_up{member="m0"} 1` + "\n",
		`capi_fleet_member_up{member="m1"} 0` + "\n",
		`capi_active_functions{member="m0"} `,
		`capi_ttl_pending{member="m0",kind="select"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet /metrics missing %q", want)
		}
	}
	if strings.Contains(text, `capi_active_functions{member="m1"}`) {
		t.Error("dead member still contributes series")
	}
}
