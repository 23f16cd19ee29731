package scorep

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"capi/internal/obj"
	"capi/internal/vtime"
)

type fakeCtx struct {
	rank int
	clk  vtime.Clock
}

func (f *fakeCtx) RankID() int         { return f.rank }
func (f *fakeCtx) Clock() *vtime.Clock { return &f.clk }

func newM(t *testing.T, ranks int) *Measurement {
	t.Helper()
	m, err := New(Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Ranks: 0}); err == nil {
		t.Fatal("ranks=0 should fail")
	}
}

func TestRegionHandles(t *testing.T) {
	m := newM(t, 1)
	a := m.RegionHandle("foo")
	b := m.RegionHandle("foo")
	c := m.RegionHandle("bar")
	if a != b || a == c {
		t.Fatalf("handles: %d %d %d", a, b, c)
	}
	if id, ok := m.LookupRegion("foo"); !ok || id != a {
		t.Fatal("names wrong")
	}
	if _, ok := m.LookupRegion("baz"); ok {
		t.Fatal("unregistered name has a handle")
	}
}

func TestCallPathProfile(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	// main { work; child{10}; child{10} } with child under main.
	m.Enter(tc, "main")
	tc.clk.Advance(100)
	for i := 0; i < 2; i++ {
		m.Enter(tc, "child")
		tc.clk.Advance(10)
		m.Exit(tc, "child")
	}
	m.Exit(tc, "main")

	p := m.Profile()
	mainP := p.Region("main")
	childP := p.Region("child")
	if mainP == nil || childP == nil {
		t.Fatalf("regions missing: %+v", p.Regions)
	}
	if mainP.Visits != 1 || childP.Visits != 2 {
		t.Fatalf("visits: main %d child %d", mainP.Visits, childP.Visits)
	}
	if childP.Inclusive < 20 {
		t.Fatalf("child inclusive = %d", childP.Inclusive)
	}
	if mainP.Inclusive <= childP.Inclusive {
		t.Fatal("main inclusive should exceed child inclusive")
	}
	// Exclusive: main excludes child time.
	if mainP.Exclusive >= mainP.Inclusive {
		t.Fatal("main exclusive should be less than inclusive")
	}
	// Observed edge main->child for MetaCG validation.
	found := false
	for _, e := range p.Edges {
		if e.Caller == "main" && e.Callee == "child" {
			found = true
		}
	}
	if !found {
		t.Fatalf("edge main->child missing: %v", p.Edges)
	}
	// Call tree: main at depth 0, child at depth 1.
	if len(p.CallTree) != 2 || p.CallTree[0].Name != "main" || p.CallTree[1].Depth != 1 {
		t.Fatalf("call tree = %+v", p.CallTree)
	}
}

func TestEventCostsCharged(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	m.Enter(tc, "r")
	m.Exit(tc, "r")
	// The enter sees an empty call tree (no pressure yet); the exit sees
	// the one node the enter created.
	want := enterCost + exitCost + treePressureCost
	if tc.clk.Now() != want {
		t.Fatalf("charged %d, want %d", tc.clk.Now(), want)
	}
}

func TestTreePressureGrowsWithCallTree(t *testing.T) {
	// An enter/exit pair on a rank with a populated calling-context tree
	// must cost strictly more than the same pair on a fresh rank — the
	// mechanism behind Table II's full-instrumentation crossover.
	big := newM(t, 1)
	tcBig := &fakeCtx{}
	for _, r := range []string{"a", "b", "c"} {
		big.Enter(tcBig, r)
	}
	for range 3 {
		big.Exit(tcBig, "c")
	}
	before := tcBig.clk.Now()
	big.Enter(tcBig, "a")
	big.Exit(tcBig, "a")
	bigPair := tcBig.clk.Now() - before

	small := newM(t, 1)
	tcSmall := &fakeCtx{}
	small.Enter(tcSmall, "a")
	small.Exit(tcSmall, "a")
	if bigPair <= tcSmall.clk.Now() {
		t.Fatalf("pair on 3-node tree (%d) not above pair on fresh tree (%d)", bigPair, tcSmall.clk.Now())
	}
}

func TestSpuriousExitIgnored(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	m.Exit(tc, "never-entered") // must not panic
	p := m.Profile()
	if r := p.Region("never-entered"); r != nil && r.Visits != 0 {
		t.Fatalf("spurious exit recorded: %+v", r)
	}
}

func TestMultiRankAggregation(t *testing.T) {
	m := newM(t, 3)
	for rank := 0; rank < 3; rank++ {
		tc := &fakeCtx{rank: rank}
		m.Enter(tc, "work")
		tc.clk.Advance(int64(100 * (rank + 1)))
		m.Exit(tc, "work")
	}
	p := m.Profile()
	w := p.Region("work")
	if w.Visits != 3 {
		t.Fatalf("visits = %d", w.Visits)
	}
	if w.Inclusive < 600 {
		t.Fatalf("inclusive sum = %d, want >= 600", w.Inclusive)
	}
	if p.Ranks != 3 {
		t.Fatalf("ranks = %d", p.Ranks)
	}
}

func TestRuntimeFilter(t *testing.T) {
	f := NewFilter().Exclude("tiny*")
	m, err := New(Options{Ranks: 1, RuntimeFilter: f})
	if err != nil {
		t.Fatal(err)
	}
	tc := &fakeCtx{}
	m.Enter(tc, "tiny_helper")
	m.Exit(tc, "tiny_helper")
	m.Enter(tc, "big")
	m.Exit(tc, "big")
	p := m.Profile()
	if p.Region("tiny_helper") != nil {
		t.Fatal("filtered region recorded")
	}
	if p.Region("big") == nil {
		t.Fatal("unfiltered region missing")
	}
	if p.FilteredEvents != 2 {
		t.Fatalf("filtered events = %d", p.FilteredEvents)
	}
	// The filter check cost is retained even for filtered events (§II-B).
	minCost := 2*filterCheckCost + enterCost + exitCost
	if tc.clk.Now() < minCost {
		t.Fatalf("clock %d < %d: filter check cost not retained", tc.clk.Now(), minCost)
	}
}

func TestCygInterfaceWithResolver(t *testing.T) {
	im := &obj.Image{
		Name: "exe", Exe: true, TextSize: 0x1000,
		Symbols: []obj.Symbol{{Name: "kernel", Value: 0x100, Size: 0x40, Kind: obj.SymFunc}},
	}
	if err := im.Finalize(); err != nil {
		t.Fatal(err)
	}
	p, err := obj.NewProcess(im)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResolverFromExecutable(p)
	m := newM(t, 1)
	tc := &fakeCtx{}
	exeBase := p.Executable().Base

	m.CygEnter(tc, r, exeBase+0x100)
	tc.clk.Advance(50)
	m.CygExit(tc, r, exeBase+0x100)
	// A DSO-like address that is not resolvable.
	m.CygEnter(tc, r, 0x7f00dead0000)
	m.CygExit(tc, r, 0x7f00dead0000)

	prof := m.Profile()
	if prof.Region("kernel") == nil || prof.Region("kernel").Visits != 1 {
		t.Fatalf("kernel not resolved: %+v", prof.Regions)
	}
	if prof.UnknownEvents != 2 {
		t.Fatalf("unknown events = %d, want 2", prof.UnknownEvents)
	}
	if prof.Region("UNKNOWN") == nil {
		t.Fatal("UNKNOWN region missing")
	}
	// Symbol injection repairs resolution.
	r.Inject(0x7f00dead0000, "dso_fn")
	m.CygEnter(tc, r, 0x7f00dead0000)
	m.CygExit(tc, r, 0x7f00dead0000)
	prof = m.Profile()
	if prof.Region("dso_fn") == nil {
		t.Fatal("injected symbol not resolved")
	}
	if r.Len() != 2 {
		t.Fatalf("resolver len = %d", r.Len())
	}
}

func TestProfileTextOutput(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	m.Enter(tc, "main")
	tc.clk.Advance(vtime.Second)
	m.Exit(tc, "main")
	p := m.Profile()
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "main") {
		t.Fatalf("text output:\n%s", buf.String())
	}
	buf.Reset()
	if err := p.WriteCallTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "visits=1") {
		t.Fatalf("call tree output:\n%s", buf.String())
	}
}

func TestFilterMatching(t *testing.T) {
	f := NewFilter().Exclude("*").Include("main").Include("Calc*Elems")
	cases := map[string]bool{ // name -> excluded?
		"main":              false,
		"CalcForceForElems": false,
		"CalcElems":         false,
		"tiny":              true,
		"CalcForceForNodes": true,
	}
	for name, want := range cases {
		if got := f.Excluded(name); got != want {
			t.Errorf("Excluded(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFilterLastRuleWins(t *testing.T) {
	f := NewFilter().Include("foo").Exclude("foo")
	if !f.Excluded("foo") {
		t.Fatal("last rule should win")
	}
}

// TestFilterSerializationRoundTrip pins the filter-file syntax WriteTo
// emits, rules in the order they were added.
func TestFilterSerializationRoundTrip(t *testing.T) {
	f := NewFilter().Exclude("*").Include("main").Include("solve*")
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := "SCOREP_REGION_NAMES_BEGIN\n  EXCLUDE *\n  INCLUDE main\n  INCLUDE solve*\nSCOREP_REGION_NAMES_END\n"
	if got := buf.String(); got != want || n != int64(len(want)) {
		t.Fatalf("WriteTo wrote %d bytes:\n%s\nwant:\n%s", n, got, want)
	}
}

// Property: matchPattern("pre*post") matches iff prefix and suffix hold.
func TestMatchPatternProperty(t *testing.T) {
	f := func(pre, mid, post string) bool {
		clean := func(s string) string { return strings.ReplaceAll(s, "*", "") }
		pre, mid, post = clean(pre), clean(mid), clean(post)
		return matchPattern(pre+"*"+post, pre+mid+post)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuggestFilter(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	// A hot tiny function: 5000 visits, ~100ns each.
	m.Enter(tc, "main")
	for i := 0; i < 5000; i++ {
		m.Enter(tc, "tinyHot")
		tc.clk.Advance(100)
		m.Exit(tc, "tinyHot")
	}
	// A big kernel: few visits, long.
	m.Enter(tc, "kernel")
	tc.clk.Advance(vtime.Second)
	m.Exit(tc, "kernel")
	m.Exit(tc, "main")

	sug, filter := SuggestFilter(m.Profile(), DefaultScoreOptions())
	if len(sug.Exclude) != 1 || sug.Exclude[0] != "tinyHot" {
		t.Fatalf("suggestion = %+v", sug)
	}
	if sug.EventsRemoved != 5000 {
		t.Fatalf("events removed = %d", sug.EventsRemoved)
	}
	if !filter.Excluded("tinyHot") || filter.Excluded("kernel") || filter.Excluded("main") {
		t.Fatal("generated filter wrong")
	}
}

func TestInitCost(t *testing.T) {
	m := newM(t, 1)
	if m.InitCost(1000) <= m.InitCost(10) {
		t.Fatal("init cost should grow with symbol count")
	}
}

// TestCloseDanglingSplicesOpenFrames covers the synthetic-exit path live
// re-selection uses: open frames of the deselected region are spliced off
// the stack, frames above and below stay balanced.
func TestCloseDanglingSplicesOpenFrames(t *testing.T) {
	m := newM(t, 2)
	tc := &fakeCtx{}
	m.Enter(tc, "outer")
	tc.clk.Advance(1000)
	m.Enter(tc, "dangling")
	tc.clk.Advance(1000)
	m.Enter(tc, "inner")
	region, ok := m.LookupRegion("dangling")
	if !ok {
		t.Fatal("region not registered")
	}
	if closed := m.CloseDangling(region); closed != 1 {
		t.Fatalf("closed = %d, want 1", closed)
	}
	if got := m.OpenRegions(0); got != 2 {
		t.Fatalf("open = %d, want 2 (outer, inner)", got)
	}
	// The surviving frames exit in order, untouched by the splice.
	m.Exit(tc, "inner")
	m.Exit(tc, "outer")
	if got := m.OpenRegions(0); got != 0 {
		t.Fatalf("open = %d after balanced exits", got)
	}
	if r := m.Profile().Region("dangling"); r == nil || r.Visits != 1 || r.Inclusive <= 0 {
		t.Fatalf("dangling region not closed into profile: %+v", r)
	}
	// Closing a region with nothing open is a no-op.
	if closed := m.CloseDangling(region); closed != 0 {
		t.Fatalf("re-close closed %d", closed)
	}
}

// TestLateExitAfterSyntheticClose is the regression for the in-flight race
// on live re-selection: a real exit that was already past the runtime's
// active check when the synthetic exit closed its frame must not pop an
// unrelated frame off the stack.
func TestLateExitAfterSyntheticClose(t *testing.T) {
	m := newM(t, 1)
	tc := &fakeCtx{}
	m.Enter(tc, "outer")
	m.Enter(tc, "dangling")
	region, _ := m.LookupRegion("dangling")
	if closed := m.CloseDangling(region); closed != 1 {
		t.Fatal("synthetic close failed")
	}
	// The late real exit for the already-closed region: ignored, the
	// still-open outer frame must survive.
	m.Exit(tc, "dangling")
	if got := m.OpenRegions(0); got != 1 {
		t.Fatalf("open = %d, want 1 (outer)", got)
	}
	m.Exit(tc, "outer")
	if got := m.OpenRegions(0); got != 0 {
		t.Fatalf("open = %d", got)
	}
}
