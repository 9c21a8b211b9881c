package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// fig7Spec reproduces the complexity-reduction study: Base (4-way, 40
// RS), RS (20 reservation stations), IW (3-way issue with a single
// load/store port), and IW+RS — each without integration and with the
// full +reverse configuration under realistic and oracle suppression.
// Speedups are relative to the un-integrated Base machine.
//
// Paper reference points: IW costs 12% and integration recovers to
// within 2% of base; RS costs 10%, recovered to within 1%; IW+RS costs
// 18%, recovered to within 7%.
var fig7Spec = runner.Spec{
	ID:          "fig7",
	Description: "Figure 7: reduced-complexity cores, with and without integration",
	Configs:     fig7Configs(),
	Collect:     collectFig7,
}

var fig7Cores = []string{sim.CoreBase, sim.CoreRS, sim.CoreIW, sim.CoreIWRS}

func fig7Configs() []runner.Config {
	var cfgs []runner.Config
	for _, core := range fig7Cores {
		cfgs = append(cfgs,
			runner.Config{Label: core + "/none", Opt: sim.Options{Core: core, Integration: sim.IntNone}},
			runner.Config{Label: core + "/lisp", Opt: sim.Options{Core: core, Integration: sim.IntReverse, Suppression: sim.SuppressLISP}},
			runner.Config{Label: core + "/or", Opt: sim.Options{Core: core, Integration: sim.IntReverse, Suppression: sim.SuppressOracle}})
	}
	return cfgs
}

func collectFig7(rs *runner.ResultSet) ([]*stats.Table, error) {
	base := sim.CoreBase + "/none"
	t := table(rs, "Figure 7: reduced-complexity cores, speedup % vs un-integrated Base", "GMean",
		metric("baseIPC", base, (*pipeline.Stats).IPC, num).unsummed(),
		speedup("base+int", sim.CoreBase+"/lisp", base),
		speedup("RS", sim.CoreRS+"/none", base),
		speedup("RS+int", sim.CoreRS+"/lisp", base),
		speedup("IW", sim.CoreIW+"/none", base),
		speedup("IW+int", sim.CoreIW+"/lisp", base),
		speedup("IW+RS", sim.CoreIWRS+"/none", base),
		speedup("IW+RS+int", sim.CoreIWRS+"/lisp", base),
		speedup("base+or", sim.CoreBase+"/or", base),
		speedup("RS+or", sim.CoreRS+"/or", base),
		speedup("IW+or", sim.CoreIW+"/or", base),
		speedup("IW+RS+or", sim.CoreIWRS+"/or", base))
	t.Note("paper: RS alone -10%%, IW alone -12%%, IW+RS -18%%; integration recovers to -1%%, -2%%, -7%%")
	return []*stats.Table{t}, nil
}
