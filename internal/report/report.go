// Package report renders the reproduction's tables and figures as
// aligned ASCII tables, CSV, and text bar charts — the output formats
// of cmd/paperbench and the material recorded in EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row. Rows shorter than the header are padded;
// longer rows are an error surfaced by Render.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		if len(row) > len(t.Headers) {
			return fmt.Errorf("report: row has %d cells, table has %d columns", len(row), len(t.Headers))
		}
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", width-utf8.RuneCountInString(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i, width := range widths {
		sep[i] = strings.Repeat("-", width)
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (simple quoting: cells containing
// commas or quotes are quoted with doubled quotes).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table
// (used to regenerate EXPERIMENTS.md mechanically).
func (t *Table) RenderMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "**%s**\n\n", t.Title); err != nil {
			return err
		}
	}
	row := func(cells []string) error {
		parts := make([]string, len(t.Headers))
		for i := range parts {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
		return err
	}
	if err := row(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.rows {
		if len(r) > len(t.Headers) {
			return fmt.Errorf("report: row has %d cells, table has %d columns", len(r), len(t.Headers))
		}
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// BarChart renders labeled horizontal bars scaled to the largest value,
// the text analogue of the paper's runtime bar figures.
func BarChart(w io.Writer, title string, labels []string, values []float64, width int) error {
	if len(labels) != len(values) {
		return fmt.Errorf("report: %d labels for %d values", len(labels), len(values))
	}
	if width <= 0 {
		width = 50
	}
	var maxV float64
	maxL := 0
	for i, v := range values {
		if v < 0 {
			return fmt.Errorf("report: negative bar value %v", v)
		}
		if v > maxV {
			maxV = v
		}
		if n := utf8.RuneCountInString(labels[i]); n > maxL {
			maxL = n
		}
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	for i, v := range values {
		bar := 0
		if maxV > 0 {
			bar = int(v / maxV * float64(width))
		}
		if v > 0 && bar == 0 {
			bar = 1
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s %.6g\n", maxL, labels[i], strings.Repeat("#", bar), v); err != nil {
			return err
		}
	}
	return nil
}

// Seconds formats a runtime with sensible units for tables.
func Seconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.3g µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.3g ms", s*1e3)
	default:
		return fmt.Sprintf("%.4g s", s)
	}
}
