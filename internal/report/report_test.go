package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := New("Table I", "variant", "time", "#selected").AlignRight(1, 2)
	tab.AddRow("mpi", "1.4s", "19")
	tab.AddRow("kernels coarse", "1.4s", "10")
	out := tab.String()
	if !strings.Contains(out, "Table I") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Right alignment: the numbers end at the same column.
	if !strings.HasSuffix(lines[3], "19") || !strings.HasSuffix(lines[4], "10") {
		t.Fatalf("alignment wrong:\n%s", out)
	}
	if strings.Index(lines[3], "19") != strings.Index(lines[4], "10") {
		t.Fatalf("right-aligned columns differ:\n%s", out)
	}
}

func TestShortRowsPadded(t *testing.T) {
	tab := New("", "a", "b", "c")
	tab.AddRow("only")
	if len(tab.Rows[0]) != 3 {
		t.Fatalf("row = %v", tab.Rows[0])
	}
	// Must not panic when rendering.
	_ = tab.String()
}
