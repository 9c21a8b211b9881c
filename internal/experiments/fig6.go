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

// fig6Variant is one point on an IT axis.
type fig6Variant struct {
	label string
	opt   sim.Options
}

var fig6Assocs = []fig6Variant{
	{"1-way", sim.Options{ITEntries: 1024, ITAssoc: 1}},
	{"2-way", sim.Options{ITEntries: 1024, ITAssoc: 2}},
	{"4-way", sim.Options{ITEntries: 1024, ITAssoc: 4}},
	{"full", sim.Options{ITEntries: 1024, ITAssoc: -1}},
}

var fig6Sizes = []fig6Variant{
	{"64", sim.Options{ITEntries: 64, ITAssoc: -1}},
	{"256", sim.Options{ITEntries: 256, ITAssoc: -1}},
	{"1K", sim.Options{ITEntries: 1024, ITAssoc: -1}},
	{"4K", sim.Options{ITEntries: 4096, ITAssoc: -1, PhysRegs: 4096}},
}

// fig6Label is the config label of one cell. The two axes meet at 1K
// fully associative entries, and the size axis reads that cell from the
// associativity axis, so it is simulated once per benchmark.
func fig6Label(group string, v fig6Variant, sup string) string {
	if group == "size" {
		for _, a := range fig6Assocs {
			if a.opt == v.opt {
				group, v = "assoc", a
			}
		}
	}
	return group + "/" + v.label + "/" + sup
}

func fig6Configs() []runner.Config {
	cfgs := []runner.Config{{Label: "base", Opt: sim.Options{Integration: sim.IntNone}}}
	add := func(group string, vs []fig6Variant) {
		for _, v := range vs {
			for _, sup := range []string{sim.SuppressLISP, sim.SuppressOracle} {
				label := fig6Label(group, v, sup)
				if label != group+"/"+v.label+"/"+sup {
					continue // the other axis' cell
				}
				o := v.opt
				o.Integration = sim.IntReverse
				o.Suppression = sup
				cfgs = append(cfgs, runner.Config{Label: label, Opt: o})
			}
		}
	}
	add("assoc", fig6Assocs)
	add("size", fig6Sizes)
	return cfgs
}

// fig6Table assembles one axis (assoc or size) into a speedup table.
func fig6Table(rs *runner.ResultSet, group string, vs []fig6Variant, title string) *stats.Table {
	header := []string{"bench"}
	for _, v := range vs {
		header = append(header, v.label, v.label+"/or")
	}
	t := stats.NewTable(title, header...)
	gm := make([][]float64, 2*len(vs))
	for _, b := range rs.Benches() {
		base := rs.Get(b, "base")
		row := []interface{}{b}
		for vi, v := range vs {
			lisp := rs.Get(b, fig6Label(group, v, sim.SuppressLISP))
			orc := rs.Get(b, fig6Label(group, v, sim.SuppressOracle))
			su := lisp.IPC()/base.IPC() - 1
			so := orc.IPC()/base.IPC() - 1
			row = append(row, pct2(su), pct2(so))
			gm[2*vi] = append(gm[2*vi], 1+su)
			gm[2*vi+1] = append(gm[2*vi+1], 1+so)
		}
		t.Row(row...)
	}
	grow := []interface{}{"GMean"}
	for vi := range vs {
		grow = append(grow, pct2(stats.GeoMean(gm[2*vi])-1), pct2(stats.GeoMean(gm[2*vi+1])-1))
	}
	t.Row(grow...)
	return t
}

func collectFig6(rs *runner.ResultSet) ([]*stats.Table, error) {
	left := fig6Table(rs, "assoc", fig6Assocs,
		"Figure 6 (left): speedup % vs IT associativity (1K entries, +reverse)")
	left.Note("paper: speedup only drops to 7%% (2-way) and 6%% (1-way); full assoc reaches 10%%")
	right := fig6Table(rs, "size", fig6Sizes,
		"Figure 6 (right): speedup % vs IT size (fully associative, +reverse)")
	right.Note("4K point uses 4K physical registers, per the paper (benches: %d)", len(rs.Benches()))
	return []*stats.Table{left, right}, nil
}
