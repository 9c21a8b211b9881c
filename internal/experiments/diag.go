package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// diagSpec reproduces the scalar performance diagnostics quoted in §3.2
// and §3.5 of the paper:
//
//   - mispredict resolution latency (paper: 26 -> 23.5 cycles),
//   - fetched-instruction reduction (paper: -0.6%),
//   - executed-instruction reduction (paper: -17%) and loads (-27%),
//   - average reservation-station occupancy (paper: 31 -> 27),
//   - per-type integration rates (loads 27%, stack loads 60%).
var diagSpec = runner.Spec{
	ID:          "diag",
	Description: "§3.2/§3.5 scalar diagnostics: base vs +reverse",
	Configs: []runner.Config{
		{Label: "base", Opt: sim.Options{Integration: sim.IntNone}},
		{Label: "+reverse/lisp", Opt: sim.Options{Integration: sim.IntReverse, Suppression: sim.SuppressLISP}},
	},
	Collect: collectDiag,
}

func collectDiag(rs *runner.ResultSet) ([]*stats.Table, error) {
	const base, integ = "base", "+reverse/lisp"
	// change is a counter's relative change from base to integ.
	change := func(header string, counter func(*pipeline.Stats) uint64) column {
		return column{header: header, render: pct2, summary: stats.AMean,
			value: func(rs *runner.ResultSet, b string) float64 {
				return float64(counter(rs.Get(b, integ)))/float64(counter(rs.Get(b, base))) - 1
			}}
	}
	resolve, occupancy := (*pipeline.Stats).MispredictResolutionAvg, (*pipeline.Stats).AvgRSOccupancy
	t := table(rs, "§3.2/§3.5 diagnostics: base vs +reverse", "AMean",
		metric("resolve", base, resolve, num),
		metric("resolve+int", integ, resolve, num),
		change("fetchΔ%", func(st *pipeline.Stats) uint64 { return st.Fetched }),
		change("execΔ%", func(st *pipeline.Stats) uint64 { return st.Executed }),
		column{header: "loadExecΔ%", render: pct2, summary: stats.AMean,
			value: func(rs *runner.ResultSet, b string) float64 {
				// Loads that executed in base are its retired loads;
				// with integration, less the integrated ones.
				loads := float64(rs.Get(b, base).LoadsRetired)
				in := rs.Get(b, integ)
				return (loads-float64(in.IntType[0]+in.IntType[1]))/loads - 1
			}},
		metric("RSocc", base, occupancy, num),
		metric("RSocc+int", integ, occupancy, num),
		metric("load-int%", integ, (*pipeline.Stats).LoadIntegrationRate, pct),
		metric("sp-load-int%", integ, (*pipeline.Stats).SPLoadIntegrationRate, pct))
	t.Note("paper: resolution 26 -> 23.5, fetched -0.6%%, executed -17%%, loads executed -27%%, RS occupancy 31 -> 27, loads integrate at 27%%, stack loads at 60%%")
	return []*stats.Table{t}, nil
}
