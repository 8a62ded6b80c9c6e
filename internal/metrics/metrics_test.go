package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Results" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "===") {
		t.Errorf("underline = %q", lines[1])
	}
	if !strings.Contains(lines[2], "name") || !strings.Contains(lines[2], "value") {
		t.Errorf("header = %q", lines[2])
	}
	// Column alignment: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[2], "value")
	if !strings.HasPrefix(lines[4][idx:], "1") && !strings.Contains(lines[4], "1") {
		t.Errorf("row = %q", lines[4])
	}
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.Add("x")
	if strings.HasPrefix(tb.String(), "\n=") {
		t.Error("empty title rendered underline")
	}
}

func TestTablePaddingAndTruncation(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("only-one")
	tb.Add("x", "y", "dropped")
	if len(tb.Rows[0]) != 2 || tb.Rows[0][1] != "" {
		t.Errorf("padding: %v", tb.Rows[0])
	}
	if len(tb.Rows[1]) != 2 {
		t.Errorf("truncation: %v", tb.Rows[1])
	}
}

func TestAddf(t *testing.T) {
	tb := NewTable("t", "a", "b", "c", "d")
	tb.Addf("s", 1.5, 42, 1500*time.Microsecond)
	row := tb.Rows[0]
	if row[0] != "s" || row[1] != "1.50" || row[2] != "42" || row[3] != "1.5ms" {
		t.Errorf("row = %v", row)
	}
}
