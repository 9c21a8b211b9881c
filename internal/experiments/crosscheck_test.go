package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// This file checks the two committed goldens against each other, with
// no simulation: the sampled tables (sampled_subset.json) must keep the
// conclusions a reader takes from the full-detail ones
// (bench_subset.json). Per table: each speedup's sign, the direction of
// each step along Fig. 6's two axes, the GMean and AMean rows, and each
// cell within a bound set per table. What disagrees today is listed in
// goldenDisagreements, each entry with the ROADMAP item that should
// remove it.

// goldenTable is one table of a golden, as runner.WriteJSON renders it.
type goldenTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// tableBound is how far a sampled table's cells may lie from the
// detail table's, in the table's own unit: cell for a benchmark's row,
// mean for the GMean or AMean row, and cols for the columns whose unit
// differs from the rest of the table (IPC, mis-integrations per 1M).
type tableBound struct {
	cell, mean float64
	cols       map[string]float64
}

// goldenBounds keys each table as <suite>/<index>. Speedups get 3
// points a cell and 1.5 for the mean; shares of integrations 2 points
// (Fig. 4's integration rate 1, the figure's headline); IPC 0.1;
// mis-integrations 3 per 1M retired. The diagnostics mix cycle counts,
// deltas and occupancies, all read to 2 units.
var goldenBounds = map[string]tableBound{
	"fig4/0":   {cell: 3, mean: 1.5, cols: map[string]float64{"baseIPC": 0.1}},
	"fig4/1":   {cell: 1, mean: 1, cols: map[string]float64{"misint/M": 3}},
	"fig5/0":   {cell: 2, mean: 2},
	"fig5/1":   {cell: 2, mean: 2},
	"fig5/2":   {cell: 2, mean: 2},
	"fig5/3":   {cell: 2, mean: 2},
	"fig6/0":   {cell: 3, mean: 1.5},
	"fig6/1":   {cell: 3, mean: 1.5},
	"fig7/0":   {cell: 3, mean: 1.5, cols: map[string]float64{"baseIPC": 0.1}},
	"diag/0":   {cell: 2, mean: 2},
	"ablate/0": {cell: 3, mean: 1.5},
	"ablate/1": {cell: 3, mean: 3},
}

// signBand and stepBand are the dead bands of the sign and step checks:
// a speedup under half a point reads as none, and a step along a Fig. 6
// axis under one point as flat.
const (
	signBand = 0.5
	stepBand = 1.0
)

// disagreement is a check the sampled golden fails today: check is
// "cell", "sign" or "step" (a step names the column it leads to), cols
// lists the columns it fails in, and item is the ROADMAP item whose fix
// should remove it: 1, the cold CHT every window boots with; 2, rare
// events that read as exact zeros (its step 2); 3, the selection error
// a sample this size has. The list may only shrink: an entry that
// agrees again fails the test until it is removed. Never widen a bound
// to empty it.
type disagreement struct {
	table, row, check, cols, item string
}

var goldenDisagreements = []disagreement{
	{"fig4/0", "crafty", "sign", "squash squash/or", "1"},
	{"fig4/0", "crafty", "cell", "+general +opcode +reverse +general/or +opcode/or +reverse/or", "1"},
	{"fig4/0", "vortex", "sign", "squash squash/or", "1"},
	{"fig4/0", "vortex", "cell", "+general +general/or", "1"},
	{"fig4/0", "GMean", "sign", "squash squash/or", "1"},
	{"fig4/0", "GMean", "cell", "+general +opcode +reverse +general/or +opcode/or +reverse/or", "1"},
	{"fig4/1", "crafty", "cell", "misint/M", "2"},
	{"fig4/1", "vortex", "cell", "misint/M", "2"},
	{"fig4/1", "vortex", "cell", "rev-part", "3"},
	{"fig5/1", "vortex", "cell", "<16 <64 >=64", "3"},
	{"fig6/0", "crafty", "cell", "1-way 1-way/or 2-way 2-way/or 4-way 4-way/or full full/or", "1"},
	{"fig6/0", "GMean", "cell", "1-way 1-way/or 2-way 2-way/or 4-way 4-way/or full full/or", "1"},
	{"fig6/0", "GMean", "step", "4-way", "1"},
	{"fig6/1", "crafty", "cell", "64 64/or 256 256/or 1K 1K/or 4K 4K/or", "1"},
	{"fig6/1", "crafty", "step", "1K 1K/or 4K 4K/or", "1"},
	{"fig6/1", "GMean", "cell", "64 64/or 256 256/or 1K 1K/or 4K 4K/or", "1"},
	{"fig6/1", "GMean", "step", "256/or", "1"},
	{"fig7/0", "crafty", "cell", "base+int RS RS+int IW+int IW+RS IW+RS+int base+or RS+or IW+or IW+RS+or", "1"},
	{"fig7/0", "GMean", "cell", "base+int RS RS+int IW+int IW+RS IW+RS+int base+or RS+or IW+or IW+RS+or", "1"},
	{"diag/0", "crafty", "cell", "resolve RSocc", "1"},
	{"diag/0", "vortex", "cell", "resolve resolve+int", "2"},
	{"diag/0", "mcf", "cell", "resolve resolve+int", "3"},
	{"diag/0", "AMean", "cell", "RSocc", "1"},
	{"ablate/0", "crafty", "cell", "default gen0 gen2 nodepth nolisp rev-all-st rev-alu", "1"},
	{"ablate/0", "GMean", "cell", "default gen0 gen2 nodepth nolisp rev-all-st rev-alu", "1"},
	{"ablate/1", "crafty", "cell", "default gen0 gen2 nodepth rev-all-st rev-alu", "2"},
	{"ablate/1", "crafty", "cell", "nolisp", "1"},
	{"ablate/1", "gzip", "cell", "gen0", "2"},
	{"ablate/1", "vortex", "cell", "default gen0 gen2 nodepth nolisp rev-all-st rev-alu", "2"},
}

// readGolden returns a committed golden's tables keyed <suite>/<index>,
// a sampled suite under its detail suite's id.
func readGolden(t *testing.T, file string) map[string]goldenTable {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	var suites []struct {
		ID     string        `json:"id"`
		Tables []goldenTable `json:"tables"`
	}
	if err := json.Unmarshal(data, &suites); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	tables := map[string]goldenTable{}
	for _, s := range suites {
		for i, tb := range s.Tables {
			tables[strings.TrimSuffix(s.ID, "-sampled")+"/"+strconv.Itoa(i)] = tb
		}
	}
	return tables
}

// sign is x's sign outside a dead band of width band around zero.
func sign(x, band float64) int {
	switch {
	case x >= band:
		return 1
	case x <= -band:
		return -1
	}
	return 0
}

// TestGoldensAgree compares the sampled golden with the full-detail one
// table by table and finds exactly the listed disagreements.
func TestGoldensAgree(t *testing.T) {
	detail, sampled := readGolden(t, "bench_subset.json"), readGolden(t, "sampled_subset.json")
	if len(detail) != len(sampled) || len(detail) != len(goldenBounds) {
		t.Fatalf("%d detail tables, %d sampled, %d bounds", len(detail), len(sampled), len(goldenBounds))
	}
	found := map[string]bool{}
	for key, d := range detail {
		s, b := sampled[key], goldenBounds[key]
		if s.Title != d.Title || strings.Join(s.Header, "|") != strings.Join(d.Header, "|") || len(s.Rows) != len(d.Rows) {
			t.Fatalf("%s: the goldens' tables differ in shape (%q in detail, %q sampled)", key, d.Title, s.Title)
		}
		if b.cell == 0 {
			t.Fatalf("%s: no bound", key)
		}
		speedup := strings.Contains(d.Title, "speedup")
		for r, drow := range d.Rows {
			srow := s.Rows[r]
			if srow[0] != drow[0] {
				t.Fatalf("%s row %d: %q in detail, %q sampled", key, r, drow[0], srow[0])
			}
			mean := drow[0] == "GMean" || drow[0] == "AMean"
			dv, sv := make([]float64, len(drow)), make([]float64, len(drow))
			for c := 1; c < len(drow); c++ {
				if drow[c] == "" && srow[c] == "" {
					continue
				}
				var err1, err2 error
				dv[c], err1 = strconv.ParseFloat(drow[c], 64)
				sv[c], err2 = strconv.ParseFloat(srow[c], 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s %s %s: %q in detail, %q sampled", key, drow[0], d.Header[c], drow[c], srow[c])
				}
				bound, ok := b.cols[d.Header[c]]
				if !ok {
					bound = b.cell
					if mean {
						bound = b.mean
					}
				}
				if math.Abs(dv[c]-sv[c]) > bound+1e-9 {
					found[key+"|"+drow[0]+"|cell|"+d.Header[c]] = true
				}
				if speedup && strings.ContainsAny(drow[c][:1], "+-") && sign(dv[c], signBand) != sign(sv[c], signBand) {
					found[key+"|"+drow[0]+"|sign|"+d.Header[c]] = true
				}
			}
			// Fig. 6's columns alternate LISP and oracle along one axis.
			if strings.HasPrefix(key, "fig6/") {
				for c := 3; c < len(drow); c++ {
					if sign(dv[c]-dv[c-2], stepBand) != sign(sv[c]-sv[c-2], stepBand) {
						found[key+"|"+drow[0]+"|step|"+d.Header[c]] = true
					}
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, e := range goldenDisagreements {
		for _, col := range strings.Fields(e.cols) {
			k := e.table + "|" + e.row + "|" + e.check + "|" + col
			listed[k] = true
			if !found[k] {
				t.Errorf("%s now agrees (ROADMAP item %s): remove it from goldenDisagreements", k, e.item)
			}
		}
	}
	for k := range found {
		if !listed[k] {
			t.Errorf("%s: the sampled golden disagrees with the detail golden", k)
		}
	}
}
