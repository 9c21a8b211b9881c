package experiments

import (
	"context"
	"testing"

	"rix/internal/runner"
	"rix/internal/sim"
	"rix/internal/stats"
)

// TestPaperHeadline is the repository's thesis as an executable test: on
// the full 16-benchmark suite, the paper's Figure 4 shape must hold —
// integration rate and speedup grow monotonically from squash reuse
// through +general to +reverse, the +reverse configuration lands near the
// paper's 17% rate / 8% speedup, and the call-poor benchmarks show no
// reverse integration while the call-rich ones exceed 5%.
func TestPaperHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite headline check (~2 minutes)")
	}
	c, err := runner.NewEngine(nil) // full paper suite
	if err != nil {
		t.Fatal(err)
	}

	// An ad-hoc (unregistered) spec: baseline plus each extension stack
	// under its default suppression.
	spec := runner.Spec{
		ID:      "headline",
		Configs: []runner.Config{{Label: "base", Opt: sim.Options{Integration: sim.IntNone}}},
	}
	for _, p := range sim.IntegrationPresets() {
		spec.Configs = append(spec.Configs, runner.Config{Label: p, Opt: sim.Options{Integration: p}})
	}
	rs, err := c.Gather(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}

	type res struct{ rate, reverse, speedup float64 }
	means := map[string]res{}
	perBench := map[string]map[string]res{}
	for _, preset := range sim.IntegrationPresets() {
		var rates, sps []float64
		for _, b := range rs.Benches() {
			base, st := rs.Get(b, "base"), rs.Get(b, preset)
			r := res{
				rate:    st.IntegrationRate(),
				reverse: st.ReverseRate(),
				speedup: st.IPC() / base.IPC(),
			}
			if perBench[b] == nil {
				perBench[b] = map[string]res{}
			}
			perBench[b][preset] = r
			rates = append(rates, r.rate)
			sps = append(sps, r.speedup)
		}
		means[preset] = res{rate: stats.AMean(rates), speedup: stats.GeoMean(sps)}
	}

	sq, gen, rev := means[sim.IntSquash], means[sim.IntGeneral], means[sim.IntReverse]

	// Monotone mean growth across the extension stack.
	if !(sq.rate < gen.rate && gen.rate < rev.rate) {
		t.Errorf("rate not monotone: squash %.3f, general %.3f, reverse %.3f",
			sq.rate, gen.rate, rev.rate)
	}
	if !(sq.speedup < gen.speedup && gen.speedup < rev.speedup) {
		t.Errorf("speedup not monotone: squash %.3f, general %.3f, reverse %.3f",
			sq.speedup, gen.speedup, rev.speedup)
	}

	// The headline point: +reverse near the paper's 17% / 8%.
	if rev.rate < 0.14 || rev.rate > 0.24 {
		t.Errorf("+reverse mean rate %.1f%%, want ~17%% (14-24)", 100*rev.rate)
	}
	if rev.speedup < 1.05 {
		t.Errorf("+reverse mean speedup %.1f%%, want >= 5%% (paper: 8%%)",
			100*(rev.speedup-1))
	}

	// Class structure: call-poor benchmarks must exploit no reverse
	// integration (paper §3.2: bzip2, gzip, vpr.r); call-rich ones must.
	for _, b := range []string{"bzip2", "gzip", "vpr.r", "vpr.p"} {
		if r := perBench[b][sim.IntReverse]; r.reverse > 0.005 {
			t.Errorf("call-poor %s has reverse rate %.1f%%", b, 100*r.reverse)
		}
	}
	for _, b := range []string{"gap", "gcc", "perl.d", "perl.s", "vortex", "eon.k", "crafty"} {
		if r := perBench[b][sim.IntReverse]; r.reverse < 0.03 {
			t.Errorf("call-rich %s has reverse rate only %.1f%%", b, 100*r.reverse)
		}
	}

	// mcf benefits least (the paper's memory-bound caveat).
	mcf := perBench["mcf"][sim.IntReverse]
	for b, m := range perBench {
		if b == "mcf" {
			continue
		}
		if m[sim.IntReverse].speedup < mcf.speedup-0.02 {
			t.Errorf("%s (%.3f) gains notably less than memory-bound mcf (%.3f)",
				b, m[sim.IntReverse].speedup, mcf.speedup)
		}
	}
}
