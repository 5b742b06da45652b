package obs

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Storage overhead", "quantity", "bytes", "percent")
	tb.AddRow("system tables", "2880", "0.122")
	tb.AddRowf("local per PE", 24576, 2.34375)
	tb.AddRowf("mixed", "text", int64(7), 1.5)
	s := tb.String()
	for _, want := range []string{"Storage overhead", "quantity", "system tables", "24576", "2.34", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Title, header, rule, three rows.
	if len(lines) != 6 {
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	// Extra cells are dropped, missing cells blank.
	tb2 := NewTable("", "a", "b")
	tb2.AddRow("1", "2", "3").AddRow("only")
	if !strings.Contains(tb2.String(), "only") || strings.Contains(tb2.String(), "3") {
		t.Errorf("cell clipping wrong:\n%s", tb2.String())
	}
}
