// Package experiments declares every table and figure in the paper's
// evaluation section (§3) as a runner.Spec: a labeled matrix of
// sim.Options crossed with workloads plus a collector that declares
// each table as a list of columns over the keyed results. The specs
// register with the internal/runner registry at package init;
// cmd/rixbench enumerates and executes them, and EXPERIMENTS.md records
// the results against the paper's numbers and explains how to add a
// spec.
package experiments

import (
	"fmt"

	"rix/internal/runner"
)

// The paper's suites, registered in presentation order.
func init() {
	for _, s := range []runner.Spec{fig4Spec, fig5Spec, fig6Spec, fig7Spec, diagSpec, ablateSpec} {
		runner.MustRegister(s)
	}
}

// Cell renderers: a percentage, a signed percentage, a raw float and a
// truncated count.
func pct(x float64) interface{}   { return fmt.Sprintf("%.1f", 100*x) }
func pct2(x float64) interface{}  { return fmt.Sprintf("%+.1f", 100*x) }
func num(x float64) interface{}   { return x }
func count(x float64) interface{} { return int(x) }
