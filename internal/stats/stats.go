// Package stats provides text-table rendering and summary means for the
// experiment harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table renders aligned text tables (and CSV) for experiment output.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	noteSet []string
}

// NewTable builds a table with column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Note attaches a footnote line.
func (t *Table) Note(format string, args ...interface{}) {
	t.noteSet = append(t.noteSet, fmt.Sprintf(format, args...))
}

// Header returns the column headers.
func (t *Table) Header() []string { return append([]string(nil), t.header...) }

// Rows returns the rendered data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Notes returns the attached footnotes.
func (t *Table) Notes() []string { return append([]string(nil), t.noteSet...) }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the number of header columns.
func (t *Table) NumCols() int { return len(t.header) }

// Cell returns a rendered cell.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// String renders the aligned text form.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.noteSet {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the comma-separated form.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMean computes the geometric mean of speedup-like values.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		prod *= v
	}
	return pow(prod, 1/float64(len(vals)))
}

// AMean computes the arithmetic mean.
func AMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
