package sim

import (
	"context"
	"testing"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
	"rix/internal/workload"
)

// runDetail renders the options into a pipeline.Config and runs the
// full-detail simulation — the execution path the deleted sim.Run shim
// wrapped; tests exercise Options.Config through it end to end.
func runDetail(t *testing.T, p *prog.Program, src emu.TraceSource, o Options) *pipeline.Stats {
	t.Helper()
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.New(cfg, p, src).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPolicyPresets(t *testing.T) {
	cases := []struct {
		integ                           string
		enable, general, opcode, revers bool
	}{
		{IntNone, false, false, false, false},
		{IntSquash, true, false, false, false},
		{IntGeneral, true, true, false, false},
		{IntOpcode, true, true, true, false},
		{IntReverse, true, true, true, true},
	}
	for _, c := range cases {
		cfg, err := Options{Integration: c.integ}.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.integ, err)
		}
		p := cfg.Policy
		if p.Enable != c.enable || p.GeneralReuse != c.general ||
			p.OpcodeIndex != c.opcode || p.Reverse != c.revers {
			t.Errorf("%s: policy %+v", c.integ, p)
		}
		if c.enable && !p.UseLISP {
			t.Errorf("%s: default suppression should be LISP", c.integ)
		}
	}
	if _, err := (Options{Integration: "bogus"}).Config(); err == nil {
		t.Error("bogus integration preset accepted")
	}
	if _, err := (Options{Integration: IntReverse, Suppression: "bogus"}).Config(); err == nil {
		t.Error("bogus suppression accepted")
	}
}

func TestSuppressionModes(t *testing.T) {
	cfg, _ := Options{Integration: IntReverse, Suppression: SuppressOracle}.Config()
	if !cfg.Policy.Oracle || cfg.Policy.UseLISP {
		t.Errorf("oracle: %+v", cfg.Policy)
	}
	cfg, _ = Options{Integration: IntReverse, Suppression: SuppressNone}.Config()
	if cfg.Policy.Oracle || cfg.Policy.UseLISP {
		t.Errorf("off: %+v", cfg.Policy)
	}
}

func TestCoreVariants(t *testing.T) {
	base, _ := Options{}.Config()
	if base.IssueWidth != 4 || base.NumRS != 40 || base.CombinedLS {
		t.Errorf("base: %+v", base)
	}
	rs, _ := Options{Core: CoreRS}.Config()
	if rs.NumRS != 20 || rs.IssueWidth != 4 {
		t.Errorf("rs: NumRS=%d IW=%d", rs.NumRS, rs.IssueWidth)
	}
	iw, _ := Options{Core: CoreIW}.Config()
	if iw.IssueWidth != 3 || !iw.CombinedLS || iw.NumRS != 40 {
		t.Errorf("iw: %+v", iw)
	}
	both, _ := Options{Core: CoreIWRS}.Config()
	if both.IssueWidth != 3 || !both.CombinedLS || both.NumRS != 20 {
		t.Errorf("iw+rs: %+v", both)
	}
	if _, err := (Options{Core: "bogus"}).Config(); err == nil {
		t.Error("bogus core accepted")
	}
}

func TestITAndRegfileKnobs(t *testing.T) {
	cfg, _ := Options{ITEntries: 256, ITAssoc: -1, PhysRegs: 4096, GenBits: 2, RefBits: 2}.Config()
	if cfg.IT.Entries != 256 || cfg.IT.Assoc != 256 {
		t.Errorf("IT: %+v", cfg.IT)
	}
	if cfg.PhysRegs != 4096 || cfg.GenBits != 2 || cfg.RefBits != 2 {
		t.Errorf("regfile: phys=%d gen=%d ref=%d", cfg.PhysRegs, cfg.GenBits, cfg.RefBits)
	}
	cfg, _ = Options{NoGenCounters: true}.Config()
	if cfg.GenBits != 0 {
		t.Errorf("NoGenCounters: gen=%d", cfg.GenBits)
	}
}

func TestOptionsEndToEnd(t *testing.T) {
	b := workload.Synth(workload.SynthParams{Seed: 99, Iters: 300, CallEvery: 4, MemFrac: 0.2})
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := bw.Prog
	st := runDetail(t, p, bw.Source(), Options{Integration: IntReverse})
	if st.Retired != uint64(bw.DynLen) {
		t.Errorf("retired %d != %d", st.Retired, bw.DynLen)
	}
	if st.IntegratedReverse == 0 {
		t.Error("call-dense synth workload produced no reverse integrations")
	}
}

func TestIntegrationPresetsOrder(t *testing.T) {
	ps := IntegrationPresets()
	if len(ps) != 4 || ps[0] != IntSquash || ps[3] != IntReverse {
		t.Errorf("presets: %v", ps)
	}
}
