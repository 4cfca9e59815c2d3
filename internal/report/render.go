// Package report regenerates every table and figure of the paper's
// evaluation from the simulation, rendering them in the paper's row/column
// shape. Each Table*/Fig* function runs its experiment and returns the
// formatted result; cmd/experiments and the benchmark harness drive them.
// Each serving drill's Table* is a Measure* call whose rows a Render*
// function formats; examples/server calls those two halves directly.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Table renders rows of cells with a header, padding columns to width.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends one row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
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
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// writeJSON writes rows as indented JSON (the BENCH_*.json artifacts).
func writeJSON(path string, rows any) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finish renders a drill's tables blank-line separated, skipping nil ones.
// With jsonPath set it first writes rows there and notes the artifact
// under the first table.
func finish(jsonPath string, rows any, tables ...*Table) (string, error) {
	if jsonPath != "" {
		if err := writeJSON(jsonPath, rows); err != nil {
			return "", err
		}
		tables[0].Notes = append(tables[0].Notes, fmt.Sprintf("rows written to %s", jsonPath))
	}
	var parts []string
	for _, t := range tables {
		if t != nil {
			parts = append(parts, t.String())
		}
	}
	return strings.Join(parts, "\n"), nil
}

// Series renders a labelled numeric series (our figures are ASCII charts).
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Points []Point
}

// Point is one (x, y) sample with an optional label.
type Point struct {
	X     string
	Y     float64
	Label string
}

// String renders the series as a horizontal bar chart.
func (s *Series) String() string {
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	maxY := 0.0
	maxX := 0
	for _, p := range s.Points {
		if p.Y > maxY {
			maxY = p.Y
		}
		if len(p.X) > maxX {
			maxX = len(p.X)
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	for _, p := range s.Points {
		bars := int(p.Y / maxY * 40)
		if bars < 0 {
			bars = 0
		}
		fmt.Fprintf(&b, "%-*s |%-40s %8.2f %s\n", maxX, p.X, strings.Repeat("#", bars), p.Y, p.Label)
	}
	if s.XLabel != "" || s.YLabel != "" {
		fmt.Fprintf(&b, "  (x: %s, y: %s)\n", s.XLabel, s.YLabel)
	}
	return b.String()
}

// check converts a boolean verdict into the paper's pass/fail glyphs.
func check(ok bool) string {
	if ok {
		return "prevented"
	}
	return "FAILED"
}

// f1 formats with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }

// u formats a uint64.
func u(v uint64) string { return fmt.Sprintf("%d", v) }
