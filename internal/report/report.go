// Package report renders fixed-width text tables for the
// reproduction harness (Tables I and II of the paper).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Align controls column alignment.
type Align int

// Column alignments.
const (
	Left Align = iota
	Right
)

// Table is a simple rows-and-columns report.
type Table struct {
	Title   string
	Headers []string
	Aligns  []Align // optional; missing entries default to Left
	Rows    [][]string
}

// New creates a table with the given title and headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AlignRight marks the given column indexes as right-aligned.
func (t *Table) AlignRight(cols ...int) *Table {
	if len(t.Aligns) < len(t.Headers) {
		a := make([]Align, len(t.Headers))
		copy(a, t.Aligns)
		t.Aligns = a
	}
	for _, c := range cols {
		if c >= 0 && c < len(t.Aligns) {
			t.Aligns[c] = Right
		}
	}
	return t
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) *Table {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
	return t
}

func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(w) && len(cell) > w[i] {
				w[i] = len(cell)
			}
		}
	}
	return w
}

func (t *Table) align(i int) Align {
	if i < len(t.Aligns) {
		return t.Aligns[i]
	}
	return Left
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	widths := t.widths()
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(t.Headers))
		for i := range t.Headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if t.align(i) == Right {
				parts[i] = fmt.Sprintf("%*s", widths[i], cell)
			} else {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	total := len(t.Headers)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string (for tests and logs).
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Write(&sb)
	return sb.String()
}
