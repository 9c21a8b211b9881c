package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"rix/internal/runner"
	"rix/internal/sim"
)

var bg = context.Background()

func TestCacheBasics(t *testing.T) {
	c, err := runner.NewEngine([]string{"gzip", "crafty", "vortex"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 3 {
		t.Fatalf("names = %v", c.Names())
	}
	one := runner.Spec{ID: "t-one", Benchmarks: []string{"gzip"},
		Configs: []runner.Config{{Opt: sim.Options{Integration: sim.IntReverse}}}}
	rs, err := c.Gather(bg, &one)
	if err != nil {
		t.Fatal(err)
	}
	// A full-detail run retires the workload's whole dynamic length.
	if st := rs.Get("gzip", rs.Labels()[0]); st == nil || st.Retired < 40_000 {
		t.Errorf("gzip cell = %+v, want at least 40000 retired", st)
	}
	if _, err := runner.NewEngine([]string{"nope"}); err == nil {
		t.Error("unknown cache name accepted")
	}
}

func TestFigure4Structure(t *testing.T) {
	tables := detail.suite(t, "fig4").Tables
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	speed, rate := tables[0], tables[1]
	// 4 benchmarks + mean row.
	if speed.NumRows() != 5 || rate.NumRows() != 5 {
		t.Fatalf("rows: %d, %d", speed.NumRows(), rate.NumRows())
	}
	// The +reverse rate column must dominate squash for every benchmark
	// but gzip.
	for r := 0; r < rate.NumRows()-1; r++ {
		sq := cellF(t, rate, r, 1)
		rev := cellF(t, rate, r, 4)
		if rate.Cell(r, 0) != "gzip" && rev <= sq {
			t.Errorf("%s: +reverse rate %.1f <= squash %.1f", rate.Cell(r, 0), rev, sq)
		}
	}
	// Oracle speedups must not be (systematically) worse than LISP: check
	// the mean row of +reverse.
	mean := speed.NumRows() - 1
	lisp := cellF(t, speed, mean, 4)
	oracle := cellF(t, speed, mean, 8)
	if oracle < lisp-2.0 {
		t.Errorf("oracle mean %.1f much worse than LISP %.1f", oracle, lisp)
	}
}

func TestFigure5Structure(t *testing.T) {
	tables := detail.suite(t, "fig5").Tables
	if len(tables) != 4 {
		t.Fatalf("want 4 tables, got %d", len(tables))
	}
	// Only crafty, gzip, vortex are in the Fig5 subset.
	if tables[0].NumRows() != 3 {
		t.Fatalf("type rows = %d", tables[0].NumRows())
	}
	// Breakdown fractions must sum to ~100.
	for _, tb := range tables {
		for r := 0; r < tb.NumRows(); r++ {
			sum := 0.0
			start := 1
			if tb == tables[0] {
				start = 2 // skip rate column
			}
			for col := start; col < tb.NumCols(); col++ {
				v, err := strconv.ParseFloat(tb.Cell(r, col), 64)
				if err != nil {
					break
				}
				sum += v
			}
			if sum < 99 || sum > 101 {
				t.Errorf("%s row %d: breakdown sums to %.1f", tb.Title, r, sum)
			}
		}
	}
}

func TestFigure6Structure(t *testing.T) {
	tables := detail.suite(t, "fig6").Tables
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	// Size study: oracle speedup should not decrease from 64 to 1K
	// entries (more capacity, perfect suppression) — allow small noise.
	right := tables[1]
	mean := right.NumRows() - 1
	or64 := cellF(t, right, mean, 2)
	or1k := cellF(t, right, mean, 6)
	if or1k < or64-1.0 {
		t.Errorf("oracle speedup fell with IT size: 64=%.1f 1K=%.1f", or64, or1k)
	}
}

func TestFigure7Structure(t *testing.T) {
	tables := detail.suite(t, "fig7").Tables
	tb := tables[0]
	mean := tb.NumRows() - 1
	// Complexity reductions must cost performance without integration...
	rs := cellF(t, tb, mean, 3)
	iw := cellF(t, tb, mean, 5)
	iwrs := cellF(t, tb, mean, 7)
	if rs >= 0 || iw >= 0 || iwrs >= 0 {
		t.Errorf("reduced cores not slower: RS=%.1f IW=%.1f IW+RS=%.1f", rs, iw, iwrs)
	}
	// ...and integration must recover part of the loss.
	rsInt := cellF(t, tb, mean, 4)
	iwInt := cellF(t, tb, mean, 6)
	iwrsInt := cellF(t, tb, mean, 8)
	if rsInt <= rs || iwInt <= iw || iwrsInt <= iwrs {
		t.Errorf("integration did not recover: RS %.1f->%.1f IW %.1f->%.1f IW+RS %.1f->%.1f",
			rs, rsInt, iw, iwInt, iwrs, iwrsInt)
	}
	// IW+RS should be the worst plain configuration.
	if iwrs > rs || iwrs > iw {
		t.Errorf("IW+RS (%.1f) not the worst of RS (%.1f) and IW (%.1f)", iwrs, rs, iw)
	}
}

func TestDiagnosticsStructure(t *testing.T) {
	tables := detail.suite(t, "diag").Tables
	tb := tables[0]
	mean := tb.NumRows() - 1
	// Integration must reduce executed instructions on average.
	execD := cellF(t, tb, mean, 4)
	if execD >= 0 {
		t.Errorf("executed delta %.1f%% not negative", execD)
	}
	// RS occupancy must fall.
	occB := cellF(t, tb, mean, 6)
	occI := cellF(t, tb, mean, 7)
	if occI >= occB {
		t.Errorf("RS occupancy did not fall: %.1f -> %.1f", occB, occI)
	}
}

func TestAblationsStructure(t *testing.T) {
	tables := detail.suite(t, "ablate").Tables
	speed, mis := tables[0], tables[1]
	if speed.NumRows() != 4 || mis.NumRows() != 3 {
		t.Fatalf("rows: %d, %d", speed.NumRows(), mis.NumRows())
	}
	// gen0 must produce at least as many mis-integrations as default.
	for r := 0; r < mis.NumRows(); r++ {
		def, _ := strconv.Atoi(mis.Cell(r, 1))
		g0, _ := strconv.Atoi(mis.Cell(r, 2))
		if g0 < def {
			t.Errorf("%s: gen0 misint %d < default %d", mis.Cell(r, 0), g0, def)
		}
	}
}

func cellF(t *testing.T, tb interface {
	Cell(r, c int) string
}, r, c int) float64 {
	t.Helper()
	s := strings.TrimPrefix(tb.Cell(r, c), "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number", r, c, tb.Cell(r, c))
	}
	return v
}
