package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/prog"
	"rix/internal/workload"
)

func runCfg(t *testing.T, p *prog.Program, trace []emu.TraceRec, cfg Config) *Stats {
	t.Helper()
	st, err := New(cfg, p, emu.FromSlice(trace)).RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Retired != uint64(len(trace)) {
		t.Fatalf("retired %d, want %d", st.Retired, len(trace))
	}
	return st
}

// TestTinyResources squeezes every structural resource to its minimum and
// verifies the machine still completes correctly (the pre-rename resource
// checks and serial undo must compose under constant structural stalls).
func TestTinyResources(t *testing.T) {
	p, trace := build(t, factorialSrc)
	variants := []func(*Config){
		func(c *Config) { c.ROBSize = 8 },
		func(c *Config) { c.NumRS = 2 },
		func(c *Config) { c.LSQSize = 2 },
		func(c *Config) { c.PhysRegs = 40 }, // 34 is the hard minimum
		func(c *Config) { c.FetchQueue = 1 },
		func(c *Config) { c.IssueWidth = 1; c.IntPorts = 1; c.LoadPorts = 1; c.StorePorts = 1; c.FPPorts = 1 },
		func(c *Config) { c.FetchWidth = 1; c.RenameWidth = 1; c.RetireWidth = 1 },
		func(c *Config) {
			c.ROBSize = 8
			c.NumRS = 2
			c.LSQSize = 2
			c.PhysRegs = 40
			c.FetchQueue = 1
		},
		// Odd sizes: wrap must be exact where a mask would not be.
		func(c *Config) { c.ROBSize, c.LSQSize, c.FetchQueue = 7, 3, 3 },
	}
	for i, mod := range variants {
		for _, pol := range []core.Policy{{}, {Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}} {
			cfg := DefaultConfig()
			cfg.Policy = pol
			mod(&cfg)
			t.Run(fmt.Sprintf("v%d/int=%v", i, pol.Enable), func(t *testing.T) {
				runCfg(t, p, trace, cfg)
			})
		}
	}
}

// TestTinyIT verifies degenerate integration tables work.
func TestTinyIT(t *testing.T) {
	p, trace := build(t, saveRestoreSrc)
	for _, it := range []core.TableConfig{
		{Entries: 1, Assoc: 1},
		{Entries: 4, Assoc: 4},
		{Entries: 8, Assoc: 2},
	} {
		cfg := DefaultConfig()
		cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}
		cfg.IT = it
		runCfg(t, p, trace, cfg)
	}
}

// A program engineered to mis-integrate: a load from a fixed global
// address (base register = the stable zero register) whose value changes
// between instances via an intervening store. The second instance
// integrates the stale first value; DIVA must flush and the LISP must
// learn to suppress it.
const misintSrc = `
        .text
main:   ldiq t0, 50
        clr  t3
loop:   ldq  t1, counter       ; integrates the previous instance
        addqi t1, t1, 1
        stq  t1, counter       ; makes the integrated value stale
        addq t3, t3, t1
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t3
        syscall
        .data
counter: .word 0
`

func TestMisIntegrationRecovery(t *testing.T) {
	p, trace := build(t, misintSrc)
	cfg := DefaultConfig()
	cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, UseLISP: true}
	st := runCfg(t, p, trace, cfg)
	if st.MisIntegrations == 0 {
		t.Fatal("engineered mis-integration did not fire")
	}
	if st.MisIntLoads != st.MisIntegrations {
		t.Errorf("mis-integrations not all loads: %d vs %d", st.MisIntLoads, st.MisIntegrations)
	}
	if st.DIVAFlushes < st.MisIntegrations {
		t.Errorf("DIVA flushes %d < mis-integrations %d", st.DIVAFlushes, st.MisIntegrations)
	}
	// The LISP learns: far fewer mis-integrations than loop iterations.
	if st.MisIntegrations > 5 {
		t.Errorf("LISP failed to suppress: %d mis-integrations in 50 iterations", st.MisIntegrations)
	}

	// Without the LISP, the load mis-integrates repeatedly (the IT entry
	// invalidation helps, but a fresh entry is created every iteration).
	cfg2 := DefaultConfig()
	cfg2.Policy = core.Policy{Enable: true, GeneralReuse: true}
	st2 := runCfg(t, p, trace, cfg2)
	if st2.MisIntegrations <= st.MisIntegrations {
		t.Errorf("no-LISP mis-integrations (%d) not worse than LISP (%d)",
			st2.MisIntegrations, st.MisIntegrations)
	}

	// Oracle suppression avoids (almost) all of them.
	cfg3 := DefaultConfig()
	cfg3.Policy = core.Policy{Enable: true, GeneralReuse: true, Oracle: true}
	st3 := runCfg(t, p, trace, cfg3)
	if st3.MisIntegrations > 2 {
		t.Errorf("oracle let %d mis-integrations through", st3.MisIntegrations)
	}
}

// Jump-table dispatch: indirect calls through a register, BTB training,
// and RAS behaviour under wrong-path call/return fetch.
const jumpTableSrc = `
        .text
main:   ldiq s0, 400
        ldiq s1, 98765
        clr  s2
loop:   mulqi s1, s1, 1103515245
        addqi s1, s1, 12345
        srli t0, s1, 8
        andi t0, t0, 1
        slli t0, t0, 3
        ldiq t1, jt
        addq t1, t1, t0
        ldq  pv, 0(t1)
        mov  a0, s2
        jsr  (pv)
        mov  s2, v0
        addqi s0, s0, -1
        bne  s0, loop
        clr  v0
        mov  a0, s2
        syscall
f0:     addqi v0, a0, 3
        ret
f1:     lda  sp, -16(sp)
        stq  s5, 8(sp)
        xori s5, a0, 255
        mov  v0, s5
        ldq  s5, 8(sp)
        lda  sp, 16(sp)
        ret
        .data
jt:     .word f0, f1
`

func TestJumpTableDispatch(t *testing.T) {
	p, trace := build(t, jumpTableSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			st := runWith(t, p, trace, pol)
			if st.IndirectBranches == 0 {
				t.Error("no indirect branches retired")
			}
			if st.IndirectMispreds == 0 {
				t.Error("alternating jump table never mispredicted")
			}
		})
	}
}

// Deep recursion overflowing the 32-entry RAS: return prediction degrades
// but correctness must hold, and the call-depth index keeps working.
const deepRecursionSrc = `
        .text
main:   ldiq a0, 60
        call down
        clr  v0
        syscall
down:   beq  a0, base
        lda  sp, -16(sp)
        stq  ra, 0(sp)
        addqi a0, a0, -1
        call down
        addqi v0, v0, 1
        ldq  ra, 0(sp)
        lda  sp, 16(sp)
        ret
base:   clr  v0
        ret
`

func TestDeepRecursionRASOverflow(t *testing.T) {
	p, trace := build(t, deepRecursionSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			runWith(t, p, trace, pol)
		})
	}
}

// Mixed-width memory: STQ covering an LDL, STL feeding LDL, and a
// partial-overlap LDQ over an STL (the forwarding retry path).
const mixedWidthSrc = `
        .text
main:   ldiq t0, 300
        ldiq t5, buf
        clr  t3
loop:   stq  t0, 0(t5)
        ldl  t1, 0(t5)          ; same-width low half? (STQ->LDL: overlap retry)
        addq t3, t3, t1
        stl  t0, 8(t5)
        ldl  t2, 8(t5)          ; STL->LDL exact forward
        addq t3, t3, t2
        ldq  t4, 8(t5)          ; STL->LDQ partial overlap: retry path
        addq t3, t3, t4
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t3
        syscall
        .data
buf:    .space 16
`

func TestMixedWidthMemory(t *testing.T) {
	p, trace := build(t, mixedWidthSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			runWith(t, p, trace, pol)
		})
	}
}

// TestCHTLearning: a load that repeatedly collides with an older store
// must train the collision history table and stop violating.
const collisionSrc = `
        .text
main:   ldiq t0, 2000
        ldiq t5, buf
        clr  t3
loop:   mulqi t1, t0, 17        ; slow address computation for the store
        mulqi t1, t1, 23
        andi t1, t1, 7
        slli t1, t1, 3
        addq t2, t5, t1
        stq  t0, 0(t2)          ; store with late-resolving address
        ldq  t4, 0(t5)          ; load that may collide when t1 == 0
        addq t3, t3, t4
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t3
        syscall
        .data
buf:    .space 64
`

func TestCHTLearning(t *testing.T) {
	p, trace := build(t, collisionSrc)
	st := runWith(t, p, trace, core.Policy{})
	if st.LoadViolations == 0 {
		t.Skip("no collisions occurred under this timing; CHT untested here")
	}
	// The CHT must keep violations far below the number of actual
	// store-load conflicts (1/8 of 2000 iterations).
	if st.LoadViolations > 150 {
		t.Errorf("CHT failed to learn: %d violations", st.LoadViolations)
	}
}

// TestManyRandomProgramsAllConfigs is the wide equivalence sweep: random
// synthetic programs across machine configurations, every run checked
// instruction-by-instruction by DIVA and refcount-audited at halt.
func TestManyRandomProgramsAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 10; i++ {
		b := workload.Synth(workload.SynthParams{
			Seed:       rng.Int63(),
			Iters:      80 + rng.Intn(150),
			BodyOps:    6 + rng.Intn(14),
			CallEvery:  rng.Intn(5),
			MemFrac:    rng.Float64() * 0.4,
			BranchFrac: rng.Float64() * 0.3,
			Invariants: rng.Intn(3),
		})
		bw, err := b.BuildContext(context.Background())
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		for name, pol := range paperPolicies() {
			cfg := DefaultConfig()
			cfg.Policy = pol
			if i%2 == 1 {
				cfg.NumRS = 20
				cfg.IssueWidth = 3
				cfg.CombinedLS = true
			}
			if _, err := New(cfg, bw.Prog, bw.Source()).RunContext(context.Background()); err != nil {
				t.Fatalf("prog %d cfg %s: %v", i, name, err)
			}
		}
	}
}

// TestWriteBufferBackpressure: a store burst must stall retirement, not
// break it.
const storeBurstSrc = `
        .text
main:   ldiq t0, 120
        ldiq t5, buf
loop:   stq  t0, 0(t5)
        stq  t0, 8(t5)
        stq  t0, 16(t5)
        stq  t0, 24(t5)
        stq  t0, 32(t5)
        stq  t0, 40(t5)
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        clr  a0
        syscall
        .data
buf:    .space 64
`

func TestWriteBufferBackpressure(t *testing.T) {
	p, trace := build(t, storeBurstSrc)
	runWith(t, p, trace, core.Policy{})
}
