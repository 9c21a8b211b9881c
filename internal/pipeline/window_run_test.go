package pipeline

import (
	"context"
	"reflect"
	"testing"

	"rix/internal/bpred"
	"rix/internal/emu"
	"rix/internal/workload"
)

func buildWorkload(t testing.TB, name string) workload.Built {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return bw
}

// TestNewFromColdBootEquivalence pins the boot-state seam: booting from
// an explicit count-0 emulator state with cold structures must be
// *byte-identical* to the default constructor — same register
// allocation order, same stats — so the sampled path's window 0 is
// exactly the full machine's start.
func TestNewFromColdBootEquivalence(t *testing.T) {
	bw := buildWorkload(t, "gzip")
	cfg := DefaultConfig()
	cfg.Policy.Enable = true
	cfg.Policy.GeneralReuse = true
	cfg.Policy.UseLISP = true

	ref, err := New(cfg, bw.Prog, bw.Source()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	st := emu.New(bw.Prog).State() // architectural state at instruction 0
	mem, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		t.Fatal(err)
	}
	boot := &BootState{PC: st.PC, Regs: st.Regs, Mem: mem}
	got, err := NewFrom(cfg, bw.Prog, bw.Source(), boot).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("cold-boot NewFrom diverges from New:\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestRunWindowFullCoverage runs a "window" covering the whole program
// with zero warmup from the cold-boot state: the measured delta must
// equal the full run's stats.
func TestRunWindowFullCoverage(t *testing.T) {
	bw := buildWorkload(t, "gzip")
	cfg := DefaultConfig()

	ref, err := New(cfg, bw.Prog, bw.Source()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := emu.New(bw.Prog).State()
	mem, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		t.Fatal(err)
	}
	boot := &BootState{PC: st.PC, Regs: st.Regs, Mem: mem}
	got, err := NewFrom(cfg, bw.Prog, bw.Source(), boot).RunWindowContext(context.Background(), 0, uint64(bw.DynLen))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("full-coverage RunWindow diverges from Run:\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestRunWindowWarmupGating checks the windowed-stats contract: warmup
// retirement is excluded, the measured window's retired count is the
// requested measure (within one retire group), and warmup+measured never
// exceeds the source.
func TestRunWindowWarmupGating(t *testing.T) {
	bw := buildWorkload(t, "gzip")
	cfg := DefaultConfig()
	const warmup, measure = 500, 1000

	src := emu.Limit(bw.Source(), warmup+measure+uint64(cfg.ROBSize))
	st, err := New(cfg, bw.Prog, src).RunWindowContext(context.Background(), warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired < measure || st.Retired >= measure+uint64(cfg.RetireWidth) {
		t.Errorf("measured %d retired, want ~%d", st.Retired, measure)
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Errorf("no cycles measured: %+v", st.Cycles)
	}

	// A stream ending inside warmup measures nothing.
	empty, err := New(cfg, bw.Prog, emu.Limit(bw.Source(), 100)).RunWindowContext(context.Background(), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if *empty != (Stats{}) {
		t.Errorf("warmup-only stream measured something: %+v", empty)
	}
}

// TestStatsDeltaAdd pins the windowed-stats arithmetic, and fails when a
// future Stats field gains a kind the reflection walk cannot handle.
func TestStatsDeltaAdd(t *testing.T) {
	var a, b Stats
	a.Retired, b.Retired = 100, 40
	a.Cycles, b.Cycles = 1000, 300
	a.IntType[2], b.IntType[2] = 7, 3
	a.TraceWindowPeak, b.TraceWindowPeak = 150, 90

	d := a.Delta(&b)
	if d.Retired != 60 || d.Cycles != 700 || d.IntType[2] != 4 {
		t.Errorf("delta: %+v", d)
	}
	if d.TraceWindowPeak != 150 {
		t.Errorf("delta peak = %d, want the final high-water mark 150", d.TraceWindowPeak)
	}

	sum := b
	sum.Add(&d)
	if sum.Retired != 100 || sum.Cycles != 1000 || sum.IntType[2] != 7 {
		t.Errorf("add: %+v", sum)
	}
	if sum.TraceWindowPeak != 150 {
		t.Errorf("add peak = %d, want max 150", sum.TraceWindowPeak)
	}

	// Every field must be uint64 or an array of uint64 — the kinds the
	// reflection walk handles; anything else must be special-cased in
	// Delta/Add before this test is updated.
	rt := reflect.TypeOf(Stats{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64:
		case reflect.Array:
			if f.Type.Elem().Kind() != reflect.Uint64 {
				t.Errorf("field %s: array of %s needs a Delta/Add rule", f.Name, f.Type.Elem())
			}
		default:
			t.Errorf("field %s: kind %s needs a Delta/Add rule", f.Name, f.Type.Kind())
		}
	}
}

// TestBootStateInjection verifies injected warm structures are actually
// used: a predictor pre-trained toward taken biases early predictions.
func TestBootStateInjection(t *testing.T) {
	bw := buildWorkload(t, "gzip")
	cfg := DefaultConfig()

	// Baseline and injected runs over a short prefix.
	n := uint64(5000)
	run := func(boot *BootState) *Stats {
		t.Helper()
		pl := NewFrom(cfg, bw.Prog, emu.Limit(bw.Source(), n), boot)
		st, err := pl.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := emu.New(bw.Prog).State()
	mem1, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		t.Fatal(err)
	}
	cold := run(&BootState{PC: st.PC, Regs: st.Regs, Mem: mem1})

	// The same machine with an adversarially mistrained predictor must
	// behave measurably differently (more mispredicts).
	w := NewWarm(cfg)
	w.Pred = bpredMistrained(cfg)
	mem2, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		t.Fatal(err)
	}
	warm := run(&BootState{PC: st.PC, Regs: st.Regs, Mem: mem2, Warm: w})
	if warm.CondMispredicts == cold.CondMispredicts {
		t.Errorf("injected predictor had no effect (mispredicts %d == %d)",
			warm.CondMispredicts, cold.CondMispredicts)
	}
}

// bpredMistrained builds a predictor saturated toward taken everywhere.
func bpredMistrained(cfg Config) *bpred.Predictor {
	p := bpred.NewPredictor(cfg.Pred)
	st := p.State()
	for i := range st.Bimodal {
		st.Bimodal[i] = 3
	}
	for i := range st.Gshare {
		st.Gshare[i] = 3
	}
	if err := p.SetState(st); err != nil {
		panic(err)
	}
	return p
}

// TestScratchRecyclesIntegrationState chains one Scratch through
// pipelines that alternate squash-only and general register files, PC
// and opcode IT indexing, and change the IT and register-file sizes in
// between: each run's stats equal a freshly built pipeline's, and the
// integration table and register file are reused exactly when their
// geometry matches.
func TestScratchRecyclesIntegrationState(t *testing.T) {
	bw := buildWorkload(t, "gzip")
	pol := paperPolicies()
	small := func(c *Config) { c.IT.Entries = 256 }
	fewRegs := func(c *Config) { c.PhysRegs = 512 }
	steps := []struct {
		pol              string
		mod              func(*Config)
		reuseIT, reuseRF bool
	}{
		{"squash", nil, false, false},
		{"+opcode", nil, true, true},
		{"+general", nil, true, true},
		{"+reverse", small, false, true},
		{"squash", small, true, true},
		{"+reverse", nil, false, true},
		{"+opcode", fewRegs, true, false},
		{"+general", fewRegs, true, true},
	}
	var s *Scratch
	for i, st := range steps {
		cfg := DefaultConfig()
		cfg.Policy = pol[st.pol]
		if st.mod != nil {
			st.mod(&cfg)
		}
		want, err := New(cfg, bw.Prog, emu.Limit(bw.Source(), 20000)).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		e := emu.New(bw.Prog)
		pl := NewFrom(cfg, bw.Prog, emu.Limit(bw.Source(), 20000), &BootState{PC: e.PC, Regs: e.Regs, Mem: e.Mem, Scratch: s})
		if s != nil {
			if got := pl.integ.Table == s.it; got != st.reuseIT {
				t.Errorf("step %d (%s): IT reused = %v, want %v", i, st.pol, got, st.reuseIT)
			}
			if got := pl.rf == s.rf; got != st.reuseRF {
				t.Errorf("step %d (%s): register file reused = %v, want %v", i, st.pol, got, st.reuseRF)
			}
		}
		got, err := pl.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s): recycled pipeline's stats diverge from a fresh one's", i, st.pol)
		}
		s = pl.Recycle()
	}
}
