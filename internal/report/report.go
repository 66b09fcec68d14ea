// Package report renders aligned plain-text tables for the experiment
// harness and command-line tools.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a titled table with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note is an optional footnote printed under the table.
	Note string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with aligned columns. Widths count runes, so a
// cell such as "µs" pads like any other two-character cell.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// Pct formats a ratio as a percentage with one decimal, e.g. 0.9603 -> "96.0".
func Pct(f float64) string { return fmt.Sprintf("%.1f", f*100) }

// F formats a float with the given number of decimals.
func F(f float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, f)
}

// I formats an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// RenderMarkdown writes the table as GitHub-flavoured markdown.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("### ")
		b.WriteString(t.Title)
		b.WriteString("\n\n")
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for range t.Header {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString("\n")
		b.WriteString(t.Note)
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
