package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// fig4Spec reproduces the paper's primary result (Figure 4): the impact
// of each extension — squash, +general, +opcode, +reverse — on speedup
// (top graph) and integration rate with mis-integrations (bottom graph),
// each under a realistic LISP and under oracle suppression.
//
// Paper reference points: squash 2%/1%, +general 10%/3.6%, +opcode
// 12.3%/5%, +reverse 17%/8% (rate / speedup, realistic LISP).
var fig4Spec = runner.Spec{
	ID:          "fig4",
	Description: "Figure 4: per-extension speedup and integration rate, LISP vs oracle suppression",
	Configs:     fig4Configs(),
	Collect:     collectFig4,
}

func fig4Configs() []runner.Config {
	cfgs := []runner.Config{{Label: "base", Opt: sim.Options{Integration: sim.IntNone}}}
	for _, p := range sim.IntegrationPresets() {
		cfgs = append(cfgs,
			runner.Config{Label: p + "/lisp", Opt: sim.Options{Integration: p, Suppression: sim.SuppressLISP}},
			runner.Config{Label: p + "/or", Opt: sim.Options{Integration: p, Suppression: sim.SuppressOracle}})
	}
	return cfgs
}

func collectFig4(rs *runner.ResultSet) ([]*stats.Table, error) {
	presets := sim.IntegrationPresets()
	last := presets[len(presets)-1] + "/lisp"
	rate := (*pipeline.Stats).IntegrationRate
	var speeds, orSpeeds, rates, orRates []column
	for _, p := range presets {
		speeds = append(speeds, speedup(p, p+"/lisp", "base"))
		orSpeeds = append(orSpeeds, speedup(p+"/or", p+"/or", "base"))
		rates = append(rates, metric(p, p+"/lisp", rate, pct))
		orRates = append(orRates, metric(p+"/or", p+"/or", rate, pct))
	}
	speeds = append(append(speeds, orSpeeds...), metric("baseIPC", "base", (*pipeline.Stats).IPC, num).unsummed())
	rates = append(rates, metric("rev-part", last, (*pipeline.Stats).ReverseRate, pct).unsummed())
	rates = append(append(rates, orRates...), metric("misint/M", last, (*pipeline.Stats).MisIntPerMillion, count).unsummed())

	// Means: geometric for speedups (paper), arithmetic for rates.
	top := table(rs, "Figure 4 (top): speedup % over no-integration baseline", "GMean", speeds...)
	bottom := table(rs, "Figure 4 (bottom): integration rate % (direct+reverse) and mis-integrations per 1M retired", "AMean", rates...)
	top.Note("paper (realistic LISP): squash ~1%%, +general 3.6%%, +opcode 5%%, +reverse 8%% mean speedup")
	bottom.Note("paper (realistic LISP): squash ~2%%, +general 10%%, +opcode 12.3%%, +reverse 17%% mean rate")
	return []*stats.Table{top, bottom}, nil
}
