// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table 1.1, Table 5.1, Figures 5.1–5.4)
// from this repository's implementations. Each experiment runs the real
// distributed algorithm at host-measurable rank counts, records the per-rank
// work and traffic profiles, and evaluates the α–β–γ Blue Gene/P model on
// those profiles to extend the series to the paper's processor counts (the
// host is a laptop-class machine, not a 16,384-core BG/P; see DESIGN.md's
// substitution table). Output is aligned text plus optional CSV.
package expt

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	comment []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatSeconds(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddComment appends a footnote line printed under the table.
func (t *Table) AddComment(format string, args ...any) {
	t.comment = append(t.comment, fmt.Sprintf(format, args...))
}

// formatSeconds renders a duration in seconds with the paper's scientific
// flavor for small values.
func formatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.3g", s)
	case s < 1:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, c := range t.comment {
		fmt.Fprintf(&b, "# %s\n", c)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (comments become # lines), in one Write
// so that a table is never left half-written.
func (t *Table) RenderCSV(w io.Writer) error {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	if err := cw.WriteAll(append([][]string{t.Header}, t.rows...)); err != nil {
		return err
	}
	for _, c := range t.comment {
		fmt.Fprintf(&b, "# %s\n", c)
	}
	_, err := w.Write(b.Bytes())
	return err
}
