package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// Fig5Benchmarks is the paper's "every other benchmark" subset shown in
// Figure 5.
var Fig5Benchmarks = []string{
	"crafty", "eon.k", "gap", "gzip", "parser", "perl.s", "vortex", "vpr.r",
}

// fig5Spec reproduces the integration-retirement-stream breakdowns of
// Figure 5: instruction Type, integration Distance, result Status at
// integration time, and post-integration Refcount — all under the
// default +reverse configuration with a realistic LISP.
var fig5Spec = runner.Spec{
	ID:          "fig5",
	Description: "Figure 5: integration stream breakdowns (type, distance, status, refcount)",
	Benchmarks:  Fig5Benchmarks,
	Configs: []runner.Config{
		{Label: "+reverse/lisp", Opt: sim.Options{Integration: sim.IntReverse, Suppression: sim.SuppressLISP}},
	},
	Collect: collectFig5,
}

func collectFig5(rs *runner.ResultSet) ([]*stats.Table, error) {
	const l = "+reverse/lisp"
	integrated := func(st *pipeline.Stats) uint64 { return st.Integrated }
	refcounts := func(st *pipeline.Stats) uint64 {
		return st.IntRefcount[0] + st.IntRefcount[1] + st.IntRefcount[2] + st.IntRefcount[3]
	}
	typ := table(rs, "Figure 5 (Type): integration stream by instruction type, % of integrations", "",
		append([]column{metric("rate%", l, (*pipeline.Stats).IntegrationRate, pct)},
			shares(l, func(st *pipeline.Stats) []uint64 { return st.IntType[:] }, integrated,
				"load-sp", "load", "ALU", "branch", "FP")...)...)
	dist := table(rs, "Figure 5 (Distance): rename-stream distance from entry creation, % of integrations", "",
		shares(l, func(st *pipeline.Stats) []uint64 { return st.IntDistance[:] }, integrated,
			"<4", "<16", "<64", ">=64")...)
	// IntStatus is indexed by core.ResultStatus: rename, issue, retire,
	// shadow/squash.
	status := table(rs, "Figure 5 (Status): result state at integration time, % of integrations", "",
		shares(l, func(st *pipeline.Stats) []uint64 { return st.IntStatus[:] }, integrated,
			"rename", "issue", "retire", "shadow/squash")...)
	ref := table(rs, "Figure 5 (Refcount): post-integration reference count, % of register integrations", "",
		shares(l, func(st *pipeline.Stats) []uint64 { return st.IntRefcount[:] }, refcounts,
			"=1", "<=3", "<=7", ">7")...)
	dist.Note("paper: <10%% of integrations within 4 instructions, <20%% within 16")
	status.Note("paper: 10-20%% of results integrated before the producer executed")
	ref.Note("paper: ~60%% of integrations share with an active mapping; degrees 2-3 dominate")
	return []*stats.Table{typ, dist, status, ref}, nil
}
