package experiments

import (
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// fig6Spec reproduces the IT-configuration study: speedup as a function
// of IT associativity (1/2/4/full at 1K entries) and of IT size
// (64/256/1K/4K fully associative; the 4K point also uses 4K physical
// registers), under both realistic-LISP and oracle suppression, on the
// Figure 5 benchmark subset, all with the full +reverse policy.
var fig6Spec = runner.Spec{
	ID:          "fig6",
	Description: "Figure 6: speedup vs IT associativity and IT size",
	Benchmarks:  Fig5Benchmarks,
	Configs:     fig6Configs(),
	Collect:     collectFig6,
}

// fig6Cells are the simulated IT geometries, by config label prefix,
// each run with +reverse under both suppressions. The two axes meet at
// 1K fully associative entries, so that cell is simulated once per
// benchmark and the size axis reads it from the associativity axis.
var fig6Cells = []struct {
	label string
	opt   sim.Options
}{
	{"assoc/1-way", sim.Options{ITEntries: 1024, ITAssoc: 1}},
	{"assoc/2-way", sim.Options{ITEntries: 1024, ITAssoc: 2}},
	{"assoc/4-way", sim.Options{ITEntries: 1024, ITAssoc: 4}},
	{"assoc/full", sim.Options{ITEntries: 1024, ITAssoc: -1}},
	{"size/64", sim.Options{ITEntries: 64, ITAssoc: -1}},
	{"size/256", sim.Options{ITEntries: 256, ITAssoc: -1}},
	{"size/4K", sim.Options{ITEntries: 4096, ITAssoc: -1, PhysRegs: 4096}},
}

// fig6Variant is one point on an IT axis: its column header and the
// cell it reads.
type fig6Variant struct{ header, cell string }

var fig6Assocs = []fig6Variant{
	{"1-way", "assoc/1-way"}, {"2-way", "assoc/2-way"}, {"4-way", "assoc/4-way"}, {"full", "assoc/full"},
}

var fig6Sizes = []fig6Variant{
	{"64", "size/64"}, {"256", "size/256"}, {"1K", "assoc/full"}, {"4K", "size/4K"},
}

func fig6Configs() []runner.Config {
	cfgs := []runner.Config{{Label: "base", Opt: sim.Options{Integration: sim.IntNone}}}
	for _, c := range fig6Cells {
		for _, sup := range []string{sim.SuppressLISP, sim.SuppressOracle} {
			o := c.opt
			o.Integration = sim.IntReverse
			o.Suppression = sup
			cfgs = append(cfgs, runner.Config{Label: c.label + "/" + sup, Opt: o})
		}
	}
	return cfgs
}

// fig6Table is one axis' speedup table.
func fig6Table(rs *runner.ResultSet, vs []fig6Variant, title string) *stats.Table {
	var cols []column
	for _, v := range vs {
		cols = append(cols,
			speedup(v.header, v.cell+"/"+sim.SuppressLISP, "base"),
			speedup(v.header+"/or", v.cell+"/"+sim.SuppressOracle, "base"))
	}
	return table(rs, title, "GMean", cols...)
}

func collectFig6(rs *runner.ResultSet) ([]*stats.Table, error) {
	left := fig6Table(rs, fig6Assocs,
		"Figure 6 (left): speedup % vs IT associativity (1K entries, +reverse)")
	left.Note("paper: speedup only drops to 7%% (2-way) and 6%% (1-way); full assoc reaches 10%%")
	right := fig6Table(rs, fig6Sizes,
		"Figure 6 (right): speedup % vs IT size (fully associative, +reverse)")
	right.Note("4K point uses 4K physical registers, per the paper (benches: %d)", len(rs.Benches()))
	return []*stats.Table{left, right}, nil
}
