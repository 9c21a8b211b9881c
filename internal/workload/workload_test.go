package workload

import (
	"context"
	"fmt"
	"testing"

	"rix/internal/isa"
)

// TestAllBenchmarksBuild assembles every benchmark, runs it to completion
// on the golden emulator, and checks self-termination, a sane dynamic
// length and non-empty output.
func TestAllBenchmarksBuild(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			bw, err := b.BuildContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := bw.DynLen
			if n < 40_000 {
				t.Errorf("%s: only %d dynamic instructions (too short to measure)", b.Name, n)
			}
			if n > 2_000_000 {
				t.Errorf("%s: %d dynamic instructions (too long for the harness)", b.Name, n)
			}
			if err := bw.Prog.Validate(); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
		})
	}
}

// TestBenchmarkMixes sanity-checks per-class instruction mixes: call-rich
// benchmarks must actually call, memory-bound ones must load a lot.
func TestBenchmarkMixes(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			bw, err := b.BuildContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			p := bw.Prog
			var calls, loads, stores, branches uint64
			src := bw.Source()
			for {
				r, ok := src.Next()
				if !ok {
					break
				}
				in := p.Code[r.CodeIdx]
				switch {
				case in.Op.IsCall():
					calls++
				case in.Op.IsLoad():
					loads++
				case in.Op.IsStore():
					stores++
				case in.Op.IsConditional():
					branches++
				}
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			n := uint64(bw.DynLen)
			callRate := float64(calls) / float64(n)
			memRate := float64(loads+stores) / float64(n)
			switch b.Class {
			case "call-rich":
				if callRate < 0.01 {
					t.Errorf("call-rich %s: call rate %.4f too low", b.Name, callRate)
				}
			case "call-poor":
				if callRate > 0.01 {
					t.Errorf("call-poor %s: call rate %.4f too high", b.Name, callRate)
				}
			case "memory-bound":
				if memRate < 0.2 {
					t.Errorf("memory-bound %s: mem rate %.4f too low", b.Name, memRate)
				}
			}
			if branches == 0 {
				t.Errorf("%s: no conditional branches", b.Name)
			}
			_ = stores
		})
	}
}

func TestRegistryAndNames(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("paper suite has 16 benchmarks, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %s", n)
		}
		seen[n] = true
	}
	for _, b := range All() {
		if b.Name == "" || b.Source == "" || b.Class == "" || b.Description == "" {
			t.Errorf("benchmark %q missing metadata", b.Name)
		}
	}
	if _, ok := ByName("gzip"); !ok {
		t.Error("ByName(gzip) failed")
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("ByName(no-such) succeeded")
	}
}

// TestStackDiscipline verifies that call-rich benchmarks use the
// save/restore idiom reverse integration targets: SP-based stores paired
// with SP-based loads.
func TestStackDiscipline(t *testing.T) {
	for _, b := range All() {
		if b.Class != "call-rich" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, trace, err := b.BuildMaterialized(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var spStores, spLoads uint64
			for _, r := range trace {
				in := p.Code[r.CodeIdx]
				if in.IsSPStore() {
					spStores++
				}
				if in.IsSPLoad() {
					spLoads++
				}
			}
			if spStores == 0 || spLoads == 0 {
				t.Errorf("%s: sp stores %d, sp loads %d", b.Name, spStores, spLoads)
			}
			_ = isa.RegSP
		})
	}
}

func ExampleByName() {
	b, _ := ByName("gzip")
	fmt.Println(b.Name, b.Class)
	// Output: gzip call-poor
}
