package report

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
		Note:   "a note",
	}
	tab.AddRow("alpha", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows + note.
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	if lines[5] != "a note" {
		t.Errorf("note missing: %q", out)
	}
	// Columns align: "value" of row 1 starts at the same offset as row 2's.
	idx1 := strings.Index(lines[3], "1")
	if idx1 < len("a-much-longer-name") {
		t.Errorf("column not aligned: %q", lines[3])
	}
}

// TestTableRenderMultibyte: a cell with a multi-byte rune ("µs") pads by
// rune count, so the columns after it line up with the other rows'.
func TestTableRenderMultibyte(t *testing.T) {
	tab := &Table{Header: []string{"stage", "unit", "value"}}
	tab.AddRow("compile", "µs", "12")
	tab.AddRow("remainder", "ms", "3")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	col := func(line, cell string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, cell)])
	}
	want := col(lines[0], "value")
	for _, c := range []struct{ line, cell string }{{lines[2], "12"}, {lines[3], "3"}} {
		if got := col(c.line, c.cell); got != want {
			t.Errorf("%q: value column at rune %d, header's at %d", c.line, got, want)
		}
	}
}

func TestTableRenderEmpty(t *testing.T) {
	tab := &Table{Header: []string{"h"}}
	if out := tab.String(); !strings.Contains(out, "h") {
		t.Errorf("empty table render: %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.9603); got != "96.0" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(1.0); got != "100.0" {
		t.Errorf("Pct(1) = %q", got)
	}
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
	if got := I(-42); got != "-42" {
		t.Errorf("I = %q", got)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
		Note:   "a note",
	}
	tab.AddRow("x|y", "1")
	var b strings.Builder
	if err := tab.RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"### Demo",
		"| name | value |",
		"|---|---|",
		`| x\|y | 1 |`,
		"a note",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
