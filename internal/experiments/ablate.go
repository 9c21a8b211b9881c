package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// ablateSpec benchmarks the design choices DESIGN.md calls out, beyond
// the paper's main configurations:
//
//   - generation-counter width (0 vs 2 vs 4 bits): register
//     mis-integration suppression (§2.2; "4-bit counters eliminate
//     virtually all register mis-integrations"),
//   - the call-depth index mix (extension 2's distribution fix),
//   - LISP on/off (cost of un-suppressed load mis-integrations),
//   - reverse entries for all stores and for invertible ALU immediates
//     (the paper's future-work directions).
var ablateSpec = runner.Spec{
	ID:          "ablate",
	Description: "Design-choice ablations: generation counters, call depth, LISP, reverse coverage",
	Benchmarks:  Fig5Benchmarks,
	Configs: append([]runner.Config{
		{Label: "base", Opt: sim.Options{Integration: sim.IntNone}},
	}, ablateVariants...),
	Collect: collectAblate,
}

// ablateVariants are the ablation columns; the config label is the
// column header.
var ablateVariants = []runner.Config{
	{Label: "default", Opt: sim.Options{Integration: sim.IntReverse}},
	{Label: "gen0", Opt: sim.Options{Integration: sim.IntReverse, NoGenCounters: true}},
	{Label: "gen2", Opt: sim.Options{Integration: sim.IntReverse, GenBits: 2}},
	{Label: "nodepth", Opt: sim.Options{Integration: sim.IntReverse, NoCallDepth: true}},
	{Label: "nolisp", Opt: sim.Options{Integration: sim.IntReverse, Suppression: sim.SuppressNone}},
	{Label: "rev-all-st", Opt: sim.Options{Integration: sim.IntReverse, ReverseAllStores: true}},
	{Label: "rev-alu", Opt: sim.Options{Integration: sim.IntReverse, ReverseALU: true}},
}

func collectAblate(rs *runner.ResultSet) ([]*stats.Table, error) {
	var speeds, mis []column
	for _, v := range ablateVariants {
		speeds = append(speeds, speedup(v.Label, v.Label, "base"))
		mis = append(mis, metric(v.Label, v.Label, (*pipeline.Stats).MisIntPerMillion, count))
	}
	speed := table(rs, "Ablations: speedup % vs no-integration baseline", "GMean", speeds...)
	misint := table(rs, "Ablations: mis-integrations per 1M retired (reg+load)", "", mis...)
	misint.Note("gen0 disables generation counters: register mis-integrations reappear (§2.2)")
	return []*stats.Table{speed, misint}, nil
}
