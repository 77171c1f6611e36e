package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Title", "name", "value", "alpha", "22222", "-----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Columns aligned: every line of the body starts at the same column
	// for field two.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableRowTooWide(t *testing.T) {
	tb := NewTable("", "one")
	tb.AddRow("a", "b")
	if err := tb.Render(&strings.Builder{}); err == nil {
		t.Fatal("over-wide row accepted")
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "a  b\n-  -\nx\n"; got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow("a", "plain")
	tb.AddRow("b", "has,comma")
	tb.AddRow("c", `has"quote`)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "name,note") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, `"has,comma"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"has""quote"`) {
		t.Fatalf("quote cell not escaped: %s", out)
	}
}

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	err := BarChart(&sb, "Runtimes", []string{"a", "bb"}, []float64{2, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Runtimes") {
		t.Fatal("missing title")
	}
	// a's bar should be about twice bb's.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	countHash := func(s string) int { return strings.Count(s, "#") }
	if countHash(lines[1]) != 10 || countHash(lines[2]) != 5 {
		t.Fatalf("bar lengths wrong:\n%s", out)
	}
}

func TestBarChartErrors(t *testing.T) {
	if err := BarChart(&strings.Builder{}, "", []string{"a"}, []float64{1, 2}, 10); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := BarChart(&strings.Builder{}, "", []string{"a"}, []float64{-1}, 10); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestBarChartTinyNonZeroVisible(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "", []string{"big", "tiny"}, []float64{1000, 0.001}, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.Contains(lines[1], "#") {
		t.Fatal("tiny bar invisible")
	}
}

func TestBarChartZeroValues(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "", []string{"z"}, []float64{0}, 20); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(sb.String(), "\n")[0], "#") {
		t.Fatal("zero value drew a bar")
	}
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1.5e-6, "1.5 µs"},
		{2.5e-3, "2.5 ms"},
		{3.25, "3.25 s"},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tb := NewTable("Title", "a", "b")
	tb.AddRow("x", "1")
	tb.AddRow("has|pipe")
	var sb strings.Builder
	if err := tb.RenderMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"**Title**", "| a | b |", "| --- | --- |", "| x | 1 |", `has\|pipe`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderMarkdownOverWideRow(t *testing.T) {
	tb := NewTable("", "one")
	tb.AddRow("a", "b")
	if err := tb.RenderMarkdown(&strings.Builder{}); err == nil {
		t.Fatal("over-wide row accepted")
	}
}
