package workload

import (
	"context"
	"testing"

	"rix/internal/isa"
)

func TestSynthDeterministic(t *testing.T) {
	a := Synth(SynthParams{Seed: 7, Iters: 50})
	b := Synth(SynthParams{Seed: 7, Iters: 50})
	if a.Source != b.Source {
		t.Error("same seed produced different programs")
	}
	c := Synth(SynthParams{Seed: 8, Iters: 50})
	if a.Source == c.Source {
		t.Error("different seeds produced identical programs")
	}
}

func TestSynthBuildsAndHalts(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		b := Synth(SynthParams{
			Seed: seed, Iters: 60, BodyOps: 10,
			CallEvery: int(seed % 4), MemFrac: 0.25, BranchFrac: 0.2,
			Invariants: int(seed % 3),
		})
		if _, err := b.BuildContext(context.Background()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSynthCallDensity(t *testing.T) {
	count := func(callEvery int) float64 {
		b := Synth(SynthParams{Seed: 3, Iters: 100, BodyOps: 12, CallEvery: callEvery})
		p, trace, err := b.BuildMaterialized(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, r := range trace {
			if p.Code[r.CodeIdx].Op.IsCall() {
				calls++
			}
		}
		return float64(calls) / float64(len(trace))
	}
	none := count(0)
	sparse := count(12)
	dense := count(3)
	if none != 0 {
		t.Errorf("CallEvery=0 produced calls: %f", none)
	}
	if dense <= sparse {
		t.Errorf("call density not monotone: dense %f <= sparse %f", dense, sparse)
	}
}

func TestSynthMemFraction(t *testing.T) {
	b := Synth(SynthParams{Seed: 5, Iters: 80, BodyOps: 16, MemFrac: 0.5})
	p, trace, err := b.BuildMaterialized(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mem := 0
	for _, r := range trace {
		if p.Code[r.CodeIdx].Op.IsMem() {
			mem++
		}
	}
	frac := float64(mem) / float64(len(trace))
	if frac < 0.15 {
		t.Errorf("MemFrac=0.5 gave only %.2f memory ops", frac)
	}
	_ = isa.LDQ
}

func TestSynthNotRegistered(t *testing.T) {
	b := Synth(SynthParams{Seed: 1})
	if _, ok := ByName(b.Name); ok {
		t.Error("synthetic benchmark leaked into the registry")
	}
}
