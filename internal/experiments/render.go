package experiments

import (
	"fmt"

	capi "capi"
	"capi/internal/report"
)

// Table II row labels of the three runs that are not a selection.
const (
	variantVanilla  = "vanilla"
	variantInactive = "xray inactive"
	variantFull     = "xray full"
)

// RenderTable1 renders Table I rows in the paper's layout: selection time,
// selected-pre, selected, and added counts per app and spec variant.
func RenderTable1(rows []SelectionRow) *report.Table {
	t := report.New("TABLE I — SELECTION RESULTS",
		"", "Time", "#selected pre", "#selected", "#added").
		AlignRight(1, 2, 3, 4)
	app := ""
	for _, r := range rows {
		if r.App != app {
			app = r.App
			t.AddRow(app)
		}
		t.AddRow(
			"  "+r.Spec,
			fmt.Sprintf("%.1fs", r.Seconds),
			fmt.Sprintf("%d (%.1f%%)", r.Pre, r.PrePct()),
			fmt.Sprintf("%d (%.1f%%)", r.Selected, r.SelectedPct()),
			fmt.Sprintf("%d", r.Added),
		)
	}
	return t
}

// RenderTable2 renders Table II in the paper's layout: per app, the vanilla
// and inactive baselines, then T_init/T_total per backend and variant.
func RenderTable2(rows []OverheadRow) *report.Table {
	t := report.New("TABLE II — INSTRUMENTATION OVERHEAD (virtual seconds)",
		"", "Tinit", "Ttotal", "overhead").
		AlignRight(1, 2, 3)
	vanilla := map[string]float64{}
	for _, r := range rows {
		if r.Variant == variantVanilla {
			vanilla[r.App] = r.TotalSeconds
		}
	}
	app, backend := "", ""
	for _, r := range rows {
		if r.App != app {
			app, backend = r.App, ""
			t.AddRow(r.App)
		}
		if r.Backend != backend && r.Backend != string(capi.BackendNone) {
			backend = r.Backend
			t.AddRow("  [" + backend + "]")
		}
		init := "-"
		if r.InitSeconds >= 0 {
			init = fmt.Sprintf("%.2f", r.InitSeconds)
		}
		over := ""
		if base := vanilla[r.App]; base > 0 && r.Variant != variantVanilla {
			over = fmt.Sprintf("%+.0f%%", 100*(r.TotalSeconds-base)/base)
		}
		t.AddRow(
			"    "+r.Variant,
			init,
			fmt.Sprintf("%.2f", r.TotalSeconds),
			over,
		)
	}
	return t
}

// RenderFacts renders the §VI-B / §VII-A in-text numbers.
func RenderFacts(f *Facts) *report.Table {
	t := report.New(
		fmt.Sprintf("§VI-B / §VII-A FACTS — %s (scale %.2f)", f.App, f.Scale),
		"fact", "measured").AlignRight(1)
	add := func(name, val string) { t.AddRow(name, val) }
	add("patchable DSOs", fmt.Sprintf("%d", f.PatchableDSOs))
	add("largest object", f.LargestObject)
	add("largest object function IDs", fmt.Sprintf("%d", f.LargestObjectIDs))
	add("hidden symbols unresolvable", fmt.Sprintf("%d", f.HiddenUnresolvable))
	add("hidden symbols selected", fmt.Sprintf("%d", f.HiddenSelected))
	add("TALP regions (mpi IC)", fmt.Sprintf("%d", f.MPIRegions))
	add("regions failed pre-MPI_Init", fmt.Sprintf("%d", f.FailedPreInit))
	add("unique failed re-entries", fmt.Sprintf("%d", f.FailedReentry))
	add("recompile turnaround", fmt.Sprintf("%.0fs", f.RecompileSeconds))
	add("dynamic patch turnaround", fmt.Sprintf("%.2fs", f.PatchInitSeconds))
	return t
}
