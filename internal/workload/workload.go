// Package workload provides the 16 synthetic benchmarks standing in for
// the paper's SPEC2000 integer suite (see DESIGN.md for the substitution
// rationale). Each program is written in rix assembly and engineered to
// exhibit the workload property the paper attributes to its namesake:
// call intensity and depth, save/restore frequency, un-hoisted loop
// invariants, branch predictability, and cache behaviour. All programs
// are self-checking: they print a checksum and exit 0.
package workload

import (
	"context"
	"fmt"
	"sort"

	"rix/internal/asm"
	"rix/internal/emu"
	"rix/internal/prog"
)

// Benchmark is one registered workload.
type Benchmark struct {
	Name        string
	Description string
	Class       string // "call-rich", "call-poor", "memory-bound", "mixed"
	Source      string
}

var registry = map[string]Benchmark{}

func register(b Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("workload: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// Names returns the paper's benchmark order.
func Names() []string {
	return []string{
		"bzip2", "crafty", "eon.c", "eon.k", "eon.r", "gap", "gcc", "gzip",
		"mcf", "parser", "perl.d", "perl.s", "twolf", "vortex", "vpr.p", "vpr.r",
	}
}

// All returns every benchmark in paper order.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, n := range Names() {
		if b, ok := registry[n]; ok {
			out = append(out, b)
		}
	}
	// Any extras (e.g. test-only registrations) in name order.
	known := map[string]bool{}
	for _, n := range Names() {
		known[n] = true
	}
	var extra []string
	for n := range registry {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		out = append(out, registry[n])
	}
	return out
}

// ByName finds a benchmark.
func ByName(name string) (Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// MaxInstrs bounds golden-trace generation; every benchmark must halt
// well within it.
const MaxInstrs = 1 << 24

// BuildContext assembles the benchmark and validates it with one
// streaming emulation pass (halts within budget, self-check exit 0)
// without materializing the trace. The returned Built mints independent
// golden trace sources on demand; Materialize is the adapter for
// consumers that still want the full slice. The validation pass polls
// ctx at a batched record cadence, and a cancelled build returns
// ctx.Err().
func (b Benchmark) BuildContext(ctx context.Context) (Built, error) {
	p, err := asm.Assemble(b.Name+".s", b.Source)
	if err != nil {
		return Built{}, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	p.Name = b.Name
	// Eager validation: drain one stream at O(1) memory.
	s := emu.Stream(p, MaxInstrs)
	s.SetContext(ctx)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if err := s.Err(); err != nil {
		if ctx.Err() != nil && err == ctx.Err() {
			return Built{}, err
		}
		return Built{}, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	e := s.Emulator()
	if e.ExitCode != 0 {
		return Built{}, fmt.Errorf("workload %s: exit code %d (self-check failed)", b.Name, e.ExitCode)
	}
	return Built{
		Prog:   p,
		DynLen: int(e.Count),
		open:   func() emu.TraceSource { return emu.Stream(p, MaxInstrs) },
	}, nil
}

// BuildMaterialized assembles the benchmark and returns its fully
// materialized golden trace — the pre-streaming contract, kept for tests
// and small traces.
func (b Benchmark) BuildMaterialized(ctx context.Context) (*prog.Program, []emu.TraceRec, error) {
	bw, err := b.BuildContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	trace, err := bw.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return bw.Prog, trace, nil
}
