package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	capi "capi"
	"capi/internal/ctl"
	"capi/internal/fleet"
	"capi/internal/pop"
)

const wideSpec = `!import("mpi.capi")
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
subtract(%mpi_comm, %excluded)
`

// fastOpts keeps fan-out failure paths quick under test: one retry with
// millisecond backoff instead of the production defaults, and a TTL long
// enough that nothing is evicted unless a test heartbeats deliberately
// (eviction timing has its own test).
func fastOpts() fleet.Options {
	return fleet.Options{
		TTL:           10 * time.Minute,
		Timeout:       2 * time.Second,
		Retries:       1,
		Backoff:       2 * time.Millisecond,
		ProbeInterval: -1, // probe timing is not under test here
	}
}

// testMember is one in-process capi serve: a live quickstart instance
// behind its own control plane.
type testMember struct {
	ts   *httptest.Server
	cp   *ctl.Server
	inst *capi.Instance
}

// URL is the member's base URL.
func (m *testMember) URL() string { return m.ts.URL }

// kill stops the member the way a process death looks from outside:
// every open connection (including the coordinator's SSE tail) drops and
// the port stops answering. Safe to call twice — t.Cleanup kills
// survivors.
func (m *testMember) kill() {
	m.cp.Shutdown() // unblocks streaming handlers so Close can drain
	m.ts.Close()
}

// newQuickstart builds one live quickstart instance, under talp unless
// backends names another set.
func newQuickstart(t *testing.T, ranks int, backends ...string) (*capi.Session, *capi.Instance) {
	t.Helper()
	if len(backends) == 0 {
		backends = []string{"talp"}
	}
	session, err := capi.NewSession(capi.Quickstart(), capi.SessionOptions{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := session.Select(wideSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := session.Start(sel, capi.RunOptions{Backends: backends, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return session, inst
}

func newMember(t *testing.T, ranks int, backends ...string) *testMember {
	t.Helper()
	session, inst := newQuickstart(t, ranks, backends...)
	cp := ctl.New(session, inst, "quickstart")
	m := &testMember{ts: httptest.NewServer(cp), cp: cp, inst: inst}
	t.Cleanup(m.kill)
	return m
}

// newCoordinator mounts a fleet server over httptest and registers it for
// cleanup.
func newCoordinator(t *testing.T, opts fleet.Options) (*fleet.Server, *httptest.Server) {
	t.Helper()
	coord, err := fleet.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return coord, ts
}

func register(t *testing.T, coordURL, memberURL, name string) fleet.RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(fleet.RegisterRequest{URL: memberURL, Name: name, App: "quickstart"})
	resp, err := http.Post(coordURL+"/v1/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
	var rr fleet.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// post POSTs and decodes without asserting the status code (fan-out
// responses encode partial failure in it).
func post(t *testing.T, url, ctype, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, ctype, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// memberTALP decodes one member's /v1/report TALP document into per-region
// rank times — the ground truth the fleet merge must reproduce.
func memberTALP(t *testing.T, memberURL string) map[string][]pop.RankTimes {
	t.Helper()
	var rep ctl.ReportResponse
	if code := get(t, memberURL+"/v1/report", &rep); code != http.StatusOK {
		t.Fatalf("member report: status %d", code)
	}
	entry, ok := rep.Reports["talp"]
	if !ok {
		t.Fatalf("member report has no talp entry (backends: %v)", rep.Backends)
	}
	var doc struct {
		Regions []struct {
			Name    string `json:"name"`
			PerRank []struct {
				UsefulNs int64 `json:"usefulNs"`
				MPINs    int64 `json:"mpiNs"`
			} `json:"perRank"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(entry.Report, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string][]pop.RankTimes{}
	for _, reg := range doc.Regions {
		set := make([]pop.RankTimes, len(reg.PerRank))
		for i, rt := range reg.PerRank {
			set[i] = pop.RankTimes{Useful: rt.UsefulNs, MPI: rt.MPINs}
		}
		out[reg.Name] = set
	}
	return out
}

// TestFleetFederation is the end-to-end path: three in-process capi serve
// instances federated under one coordinator — registration, fan-out that
// reaches every live member, a killed member reported as failed (never
// silently dropped), and a merged report whose POP metrics equal
// pop.Compute over the hand-concatenated per-member rank times.
func TestFleetFederation(t *testing.T) {
	members := make([]*testMember, 3)
	for i := range members {
		members[i] = newMember(t, 2)
	}
	_, coordTS := newCoordinator(t, fastOpts())

	for i, m := range members {
		rr := register(t, coordTS.URL, m.URL(), fmt.Sprintf("m%d", i))
		if rr.Members != i+1 {
			t.Fatalf("after registering m%d: %d members, want %d", i, rr.Members, i+1)
		}
	}

	// Fan-out reaches every live member: one POST, three re-selections.
	var fr fleet.FanoutResponse
	code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi coarse"}`, &fr)
	if code != http.StatusOK {
		t.Fatalf("fan-out to healthy fleet: status %d, want 200", code)
	}
	if len(fr.Applied) != 3 || len(fr.Failed) != 0 || fr.Divergent {
		t.Fatalf("fan-out: applied %d failed %d divergent %v, want 3/0/false",
			len(fr.Applied), len(fr.Failed), fr.Divergent)
	}
	for i, m := range members {
		if got := m.inst.Status().Reconfigs; got != 1 {
			t.Errorf("member %d: %d reconfigs after fan-out, want 1", i, got)
		}
	}

	// A phase per member so every TALP backend has a report.
	for _, m := range members {
		if code := post(t, m.URL()+"/v1/run", "application/json", `{"wait":true}`, nil); code != http.StatusOK {
			t.Fatalf("member run: status %d", code)
		}
	}

	// Kill one member; the next fan-out must report it as failed — with
	// its name and error — not silently apply to two of three.
	members[2].kill()
	code = post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr)
	if code != http.StatusMultiStatus {
		t.Fatalf("fan-out with dead member: status %d, want 207", code)
	}
	if !fr.Divergent || len(fr.Applied) != 2 || len(fr.Failed) != 1 {
		t.Fatalf("fan-out with dead member: applied %d failed %d divergent %v, want 2/1/true",
			len(fr.Applied), len(fr.Failed), fr.Divergent)
	}
	if fr.Failed[0].Member != "m2" || fr.Failed[0].Error == "" {
		t.Fatalf("failed entry = %+v, want member m2 with an error", fr.Failed[0])
	}
	if fr.Failed[0].Attempts != 2 {
		t.Errorf("dead member tried %d times, want 2 (1 + 1 retry)", fr.Failed[0].Attempts)
	}

	// Merged report: the two live members contribute, the dead one is in
	// Failed, and each region's fleet POP equals pop.Compute over the
	// concatenation of the members' own per-rank times.
	var rep fleet.FleetReportResponse
	if code := get(t, coordTS.URL+"/v1/fleet/report", &rep); code != http.StatusOK {
		t.Fatalf("fleet report: status %d, want 200", code)
	}
	if len(rep.Members) != 2 {
		t.Fatalf("fleet report members = %v, want the 2 live ones", rep.Members)
	}
	if _, ok := rep.Failed["m2"]; !ok {
		t.Fatalf("fleet report Failed = %v, want entry for dead m2", rep.Failed)
	}
	talpGroup, ok := rep.Backends["talp"]
	if !ok {
		t.Fatalf("fleet report backends = %v, want talp", rep.Backends)
	}
	if len(talpGroup.Reports) != 2 {
		t.Fatalf("talp group has %d member documents, want 2", len(talpGroup.Reports))
	}
	if rep.WorldSize != 4 {
		t.Errorf("federated world size = %d, want 4 (2 members × 2 ranks)", rep.WorldSize)
	}

	want := map[string][]pop.RankTimes{}
	for _, m := range members[:2] {
		for name, set := range memberTALP(t, m.URL()) {
			want[name] = append(want[name], set...)
		}
	}
	if len(rep.Regions) == 0 || len(rep.Regions) != len(want) {
		t.Fatalf("fleet report has %d regions, want %d", len(rep.Regions), len(want))
	}
	for _, reg := range rep.Regions {
		concat, ok := want[reg.Name]
		if !ok {
			t.Errorf("region %q not in any member report", reg.Name)
			continue
		}
		if reg.Ranks != len(concat) {
			t.Errorf("region %q: %d ranks, want %d", reg.Name, reg.Ranks, len(concat))
		}
		m := pop.Compute(concat)
		if reg.ParallelEfficiency != m.ParallelEfficiency ||
			reg.LoadBalance != m.LoadBalance ||
			reg.CommunicationEfficiency != m.CommunicationEfficiency ||
			reg.ElapsedNs != m.Elapsed || reg.MaxUsefulNs != m.MaxUseful {
			t.Errorf("region %q: fleet POP %+v != pop.Compute over concatenated ranks %+v",
				reg.Name, reg, m)
		}
		if len(reg.Members) != 2 {
			t.Errorf("region %q contributed by %v, want both live members", reg.Name, reg.Members)
		}
	}

	// The member table keeps the dead member visible (unhealthy), and the
	// rollup sums only the reachable ones.
	var fs fleet.FleetStatusResponse
	if code := get(t, coordTS.URL+"/v1/fleet/status", &fs); code != http.StatusOK {
		t.Fatalf("fleet status: status %d", code)
	}
	if fs.Rollup.Members != 3 || fs.Rollup.Reachable != 2 {
		t.Fatalf("rollup members/reachable = %d/%d, want 3/2", fs.Rollup.Members, fs.Rollup.Reachable)
	}
	if fs.Rollup.Runs != 2 || fs.Rollup.Reconfigs != 4 {
		t.Errorf("rollup runs/reconfigs = %d/%d, want 2/4 (2 live members × 1 run, × 2 re-selects)",
			fs.Rollup.Runs, fs.Rollup.Reconfigs)
	}
	for _, row := range fs.MemberStatus {
		if row.Member == "m2" && (row.Healthy || row.Error == "") {
			t.Errorf("dead member row = %+v, want unhealthy with error", row)
		}
	}
}

// TestFanoutEmptyFleet pins the 503 for a coordinator with no members —
// distinct from 502 (members exist, none applied).
func TestFanoutEmptyFleet(t *testing.T) {
	_, coordTS := newCoordinator(t, fastOpts())
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("fan-out on empty fleet: status %d, want 503", code)
	}
	if code := get(t, coordTS.URL+"/v1/fleet/report", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("report on empty fleet: status %d, want 503", code)
	}
}

// TestFanoutAllDead pins the 502 when every member fails to apply.
func TestFanoutAllDead(t *testing.T) {
	m := newMember(t, 1)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m.URL(), "m0")
	m.kill()
	var fr fleet.FanoutResponse
	if code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"mpi"}`, &fr); code != http.StatusBadGateway {
		t.Fatalf("fan-out to all-dead fleet: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 || fr.Divergent {
		t.Fatalf("all-dead fan-out: %+v, want 1 failed, not divergent", fr)
	}
}

// TestFanoutRejectionNotRetried pins that a member 4xx (deterministic
// rejection) is reported after one attempt — retrying a rejected document
// cannot converge the fleet.
func TestFanoutRejectionNotRetried(t *testing.T) {
	m := newMember(t, 1)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m.URL(), "m0")
	var fr fleet.FanoutResponse
	code := post(t, coordTS.URL+"/v1/select", "application/json", `{"builtin":"no-such-spec"}`, &fr)
	if code != http.StatusBadGateway {
		t.Fatalf("fan-out of rejected doc: status %d, want 502", code)
	}
	if len(fr.Failed) != 1 || fr.Failed[0].Attempts != 1 {
		t.Fatalf("rejected doc: %+v, want 1 failure after exactly 1 attempt", fr)
	}
	if fr.Failed[0].Status != http.StatusBadRequest || len(fr.Failed[0].Response) == 0 {
		t.Errorf("rejection relays the member's 400 body, got %+v", fr.Failed[0])
	}
}

func TestRegisterValidation(t *testing.T) {
	_, coordTS := newCoordinator(t, fastOpts())
	for _, body := range []string{`{}`, `{"url":"not a url"}`, `{"url":"ftp://x"}`} {
		if code := post(t, coordTS.URL+"/v1/fleet/register", "application/json", body, nil); code != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", body, code)
		}
	}
}

// TestHeartbeatTTLEviction registers a member that never heartbeats and
// waits for the TTL loop to evict it; a member that keeps heartbeating
// stays.
func TestHeartbeatTTLEviction(t *testing.T) {
	opts := fastOpts()
	opts.TTL = 80 * time.Millisecond
	coord, coordTS := newCoordinator(t, opts)
	m0 := newMember(t, 1)
	m1 := newMember(t, 1)
	register(t, coordTS.URL, m0.URL(), "dies")
	register(t, coordTS.URL, m1.URL(), "lives")

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Keep "lives" beating while "dies" goes silent.
		register(t, coordTS.URL, m1.URL(), "lives")
		var fs fleet.FleetStatusResponse
		get(t, coordTS.URL+"/v1/fleet/status", &fs)
		if fs.Rollup.Members == 1 {
			if fs.MemberStatus[0].Member != "lives" {
				t.Fatalf("surviving member = %q, want the one that heartbeats", fs.MemberStatus[0].Member)
			}
			if fs.Coordinator.Evictions != 1 {
				t.Fatalf("evictions = %d, want 1", fs.Coordinator.Evictions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member never evicted: %d members still registered", fs.Rollup.Members)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = coord
}

// TestStaticMembersNeverEvicted pins that -members entries survive with
// no heartbeat at all: they only go unhealthy, they never disappear.
func TestStaticMembersNeverEvicted(t *testing.T) {
	m := newMember(t, 1)
	opts := fastOpts()
	opts.TTL = 50 * time.Millisecond
	opts.Members = []string{m.URL()}
	_, coordTS := newCoordinator(t, opts)

	time.Sleep(150 * time.Millisecond) // several TTLs, zero heartbeats
	var fs fleet.FleetStatusResponse
	get(t, coordTS.URL+"/v1/fleet/status", &fs)
	if fs.Rollup.Members != 1 || !fs.MemberStatus[0].Static {
		t.Fatalf("static member table = %+v, want the one static member", fs.MemberStatus)
	}
	if fs.Coordinator.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 for a static-only fleet", fs.Coordinator.Evictions)
	}
}

// TestStaticMemberHeartbeatNeverEvicts: a -members entry that also
// registers itself, under the host:port name the static list derived,
// stays static and is never evicted however long it stays silent.
func TestStaticMemberHeartbeatNeverEvicts(t *testing.T) {
	m := newMember(t, 1)
	opts := fastOpts()
	opts.TTL = 50 * time.Millisecond
	opts.Members = []string{m.URL()}
	_, coordTS := newCoordinator(t, opts)
	register(t, coordTS.URL, m.URL(), "")

	time.Sleep(200 * time.Millisecond) // several TTLs after the one heartbeat
	var fs fleet.FleetStatusResponse
	get(t, coordTS.URL+"/v1/fleet/status", &fs)
	if fs.Rollup.Members != 1 || !fs.MemberStatus[0].Static {
		t.Fatalf("member table = %+v, want the one static member", fs.MemberStatus)
	}
	if fs.Coordinator.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 for a static member that heartbeats", fs.Coordinator.Evictions)
	}
}

// TestMetricsMerged pins the unified exposition: fleet-own series plus
// every member's samples re-labelled with member="<name>".
func TestMetricsMerged(t *testing.T) {
	m0 := newMember(t, 1)
	m1 := newMember(t, 1)
	_, coordTS := newCoordinator(t, fastOpts())
	register(t, coordTS.URL, m0.URL(), "m0")
	register(t, coordTS.URL, m1.URL(), "m1")

	resp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body) //nolint:errcheck
	text := buf.String()

	for _, want := range []string{
		"capi_fleet_members 2",
		`capi_fleet_member_up{member="m0"} 1`,
		`capi_fleet_member_up{member="m1"} 1`,
		`{member="m0"`,
		`{member="m1"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet /metrics missing %q", want)
		}
	}
	// Family headers must not repeat per member — the merged output stays
	// one valid exposition.
	if n := strings.Count(text, "# TYPE capi_active_functions"); n > 1 {
		t.Errorf("family header emitted %d times, want once", n)
	}
}

// TestFleetReportWireGolden pins GET /v1/fleet/report byte for byte: two
// quickstart members, each under talp,extrae on two ranks, after one phase
// each. As in ctl's TestReportWireGolden, each rank registers its own TALP
// regions, so the goroutine schedule moves no virtual timestamp.
func TestFleetReportWireGolden(t *testing.T) {
	_, coordTS := newCoordinator(t, fastOpts())
	for i := range 2 {
		m := newMember(t, 2, "talp", "extrae")
		register(t, coordTS.URL, m.URL(), fmt.Sprintf("m%d", i))
		if code := post(t, m.URL()+"/v1/run", "application/json", `{"wait":true}`, nil); code != http.StatusOK {
			t.Fatalf("member run: status %d", code)
		}
	}
	resp, err := http.Get(coordTS.URL + "/v1/fleet/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fleet_report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/fleet/report differs from testdata/fleet_report.golden\n--- got ---\n%s", got)
	}
}
