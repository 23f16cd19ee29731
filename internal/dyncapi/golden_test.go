package dyncapi

import (
	"reflect"
	"testing"

	"capi/internal/ic"
	"capi/internal/xray"
)

// reportGolden is the part of a ReconfigReport that is a pure function of
// (resolution table, previous selection, new IC) — what a rewrite of the
// delta computation must reproduce field for field.
type reportGolden struct {
	Patched, Unpatched, Kept, Active int
	Added, Removed                   []string
	Batch                            xray.Stats
}

func goldenOf(rep ReconfigReport) reportGolden {
	return reportGolden{rep.Patched, rep.Unpatched, rep.Kept, rep.Active, rep.AddedNames, rep.RemovedNames, rep.Batch}
}

// TestReconfigureReportGolden replays one sequence of re-selections over the
// four-function fixture — by name, by static ID only, through a hidden DSO
// symbol, and with a DSO symbol renamed after compile to a name the
// executable defines — against reports recorded field by field.
func TestReconfigureReportGolden(t *testing.T) {
	b := buildProg(t)
	// lib.so's dso_fn is renamed "kernel" after compile: the name still
	// selects the executable's kernel only.
	for i, s := range b.Image("lib.so").Symbols {
		if s.Name == "dso_fn" {
			b.Image("lib.so").Symbols[i].Name = "kernel"
		}
	}
	proc, xr := setup(t, b)
	static, err := b.StaticPackedIDs()
	if err != nil {
		t.Fatal(err)
	}
	hidden, main := static["hidden_fn"], static["main"]

	rt, err := New(proc, xr, ic.New("app", "s", []string{"main"}), &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	win := func(patched, unpatched, pages, calls, batches, funcs, windows int64) xray.Stats {
		return xray.Stats{PatchedSleds: patched, UnpatchedSleds: unpatched, MprotectPages: pages,
			MprotectCalls: calls, BatchCalls: batches, BatchFuncs: funcs, BatchWindows: windows}
	}
	steps := []struct {
		name string
		cfg  *ic.Config
		want reportGolden
	}{
		{"renamed symbol: its new name selects the executable's function only", ic.New("app", "s", []string{"kernel"}),
			reportGolden{1, 1, 0, 1, []string{"kernel"}, []string{"main"}, win(2, 2, 2, 4, 2, 2, 2)}},
		{"hidden symbol by name resolves to nothing", ic.New("app", "s", []string{"hidden_fn", "kernel"}),
			reportGolden{0, 0, 1, 1, []string{"hidden_fn"}, nil, win(0, 0, 0, 0, 0, 0, 0)}},
		{"hidden symbol by static ID", ic.New("app", "s", []string{"hidden_fn"}).WithIncludeIDs([]int32{hidden}),
			reportGolden{1, 1, 0, 1, nil, []string{"kernel"}, win(2, 2, 2, 4, 2, 2, 2)}},
		{"IDs only, unsorted, duplicated, one unknown", ic.New("app", "s", nil).WithIncludeIDs([]int32{main, hidden, main, 1 << 30}),
			reportGolden{1, 0, 1, 2, nil, []string{"hidden_fn"}, win(2, 0, 1, 2, 1, 1, 1)}},
		{"name and ID naming the same function", ic.New("app", "s", []string{"main", "kernel"}).WithIncludeIDs([]int32{main}),
			reportGolden{1, 1, 1, 2, []string{"kernel", "main"}, nil, win(2, 2, 2, 4, 2, 2, 2)}},
		{"empty IC", ic.New("app", "s", nil),
			reportGolden{0, 2, 0, 0, nil, []string{"kernel", "main"}, win(0, 4, 1, 2, 1, 2, 1)}},
	}
	for i, st := range steps {
		rep, err := rt.Reconfigure(st.cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := goldenOf(rep); !reflect.DeepEqual(got, st.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", st.name, got, st.want)
		}
		if rep.Seq != i+1 || rt.ActiveCount() != rep.Active {
			t.Errorf("%s: seq %d, %d active IDs for Active=%d", st.name, rep.Seq, rt.ActiveCount(), rep.Active)
		}
	}
}

// TestReselectedStaysDeselected: a function removed by one re-selection and
// brought back by the next must never read as unpatched while it is selected
// (its stragglers would count as spurious sled hits). With one state word per
// slot there is no second set to pair it with: it is deselected until the
// re-selection that brings it back makes it active, and a function that stays
// out is retired to unpatched one re-selection later.
func TestReselectedStaysDeselected(t *testing.T) {
	b := buildProg(t)
	proc, xr := setup(t, b)
	rt, err := New(proc, xr, ic.New("app", "s", []string{"kernel", "main"}), &CygBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kernel, main := packedOf(t, b, xr, proc, "kernel"), packedOf(t, b, xr, proc, "main")
	steps := []struct {
		include      []string
		kernel, main uint32
	}{
		{[]string{"main"}, stateDeselected, stateActive},       // kernel removed
		{[]string{"main", "kernel"}, stateActive, stateActive}, // and brought back
		{[]string{"kernel"}, stateActive, stateDeselected},
		{[]string{"dso_fn"}, stateDeselected, stateUnpatched}, // main was removed a step ago and stays out: gone
	}
	for i, st := range steps {
		if _, err := rt.Reconfigure(ic.New("app", "s", st.include)); err != nil {
			t.Fatal(err)
		}
		if k, m := rt.slot(kernel).state.Load(), rt.slot(main).state.Load(); k != st.kernel || m != st.main {
			t.Fatalf("step %d (%v): kernel/main state = %d/%d, want %d/%d", i, st.include, k, m, st.kernel, st.main)
		}
	}
}
