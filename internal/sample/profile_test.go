package sample

import (
	"context"
	"testing"

	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/workload"
)

// BenchmarkWarmObserve isolates the functional fast-forward loop
// (emulation + microarchitectural warming, no boundary snapshots) — the
// part of a sampled run that touches every instruction, and therefore
// the asymptotic floor of the sampling speedup. Compare against
// BenchmarkEmulator (plain emulation), BenchmarkWarmPass (the whole
// warm pass) and BenchmarkPipeline (detailed simulation) in the root
// package.
func BenchmarkWarmObserve(b *testing.B) {
	bench, _ := workload.ByName("vortex")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	p := bw.Prog
	// The full +reverse machine, assembled directly (this internal test
	// cannot import the sim facade: sim now depends on sample).
	cfg := pipeline.DefaultConfig()
	cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		w := newWarmer(cfg, newWarmParts(cfg))
		e := emu.New(p)
		for !e.Halted {
			pc := e.PC
			rec, err := e.Step()
			if err != nil {
				b.Fatal(err)
			}
			w.observe(p.Code[rec.CodeIdx], pc, rec, e.PC)
		}
		total += e.Count
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
