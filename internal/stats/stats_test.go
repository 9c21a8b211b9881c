package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "bench", "ipc", "rate")
	tb.Row("crafty", 1.2345, "17%")
	tb.Row("averylongbenchname", 0.5, "2%")
	tb.Note("n = %d", 2)
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "crafty") || !strings.Contains(s, "1.23") {
		t.Errorf("missing cells:\n%s", s)
	}
	if !strings.Contains(s, "# n = 2") {
		t.Error("missing note")
	}
	// Alignment: all data lines equally wide at the first column.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "bench,ipc,rate\n") {
		t.Errorf("csv header: %q", csv)
	}
	if tb.NumRows() != 2 || tb.Cell(0, 0) != "crafty" {
		t.Error("accessors wrong")
	}
}

func TestMeans(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Error("geomean degenerate cases")
	}
	if a := AMean([]float64{1, 2, 3}); a != 2 {
		t.Errorf("amean = %v", a)
	}
	if AMean(nil) != 0 {
		t.Error("amean empty")
	}
}
