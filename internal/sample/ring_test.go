package sample

import (
	"context"
	"testing"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/workload"
)

// TestRingRefillAllocatesNothing: once the live warm pass has stepped
// past its first boundary, refilling a ring entry at the next one — the
// emulator state and every warm table — allocates nothing.
func TestRingRefillAllocatesNothing(t *testing.T) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}
	sc, err := Config{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := openSource(context.Background(), bw.Prog, cfg, &sc)
	for j := 0; j < 2; j++ {
		f, ok, err := p.fetch(j)
		if !ok || err != nil {
			t.Fatalf("boundary %d: %v", j, err)
		}
		p.free = append(p.free, f.entry)
	}
	if ok, err := p.peek(2); !ok || err != nil {
		t.Fatalf("third boundary: %v", err)
	}
	en := p.free[0]
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.fill(en); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("refilling a ring entry allocates %.1f times; want 0", allocs)
	}
}
