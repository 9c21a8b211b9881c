package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rix/internal/asm"
	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/prog"
)

func build(t *testing.T, src string) (*prog.Program, []emu.TraceRec) {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	trace, _, err := emu.Trace(p, 1<<24)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return p, trace
}

// paperPolicies returns the four configurations of Figure 4.
func paperPolicies() map[string]core.Policy {
	return map[string]core.Policy{
		"none":     {},
		"squash":   {Enable: true, UseLISP: true},
		"+general": {Enable: true, GeneralReuse: true, UseLISP: true},
		"+opcode":  {Enable: true, GeneralReuse: true, OpcodeIndex: true, UseLISP: true},
		"+reverse": {Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true},
	}
}

func runWith(t *testing.T, p *prog.Program, trace []emu.TraceRec, pol core.Policy) *Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = pol
	st, err := New(cfg, p, emu.FromSlice(trace)).RunContext(context.Background())
	if err != nil {
		t.Fatalf("run (%+v): %v", pol, err)
	}
	if st.Retired != uint64(len(trace)) {
		t.Fatalf("retired %d, want %d", st.Retired, len(trace))
	}
	return st
}

const countdownSrc = `
        .text
main:   ldiq t0, 200
        clr  t1
loop:   addq t1, t1, t0
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t1
        syscall
`

func TestCountdownAllConfigs(t *testing.T) {
	p, trace := build(t, countdownSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			st := runWith(t, p, trace, pol)
			if st.IPC() <= 0.1 {
				t.Errorf("IPC = %.3f, suspiciously low", st.IPC())
			}
		})
	}
}

const factorialSrc = `
        .text
main:   ldiq a0, 12
        call fact
        clr  v0
        syscall

fact:   bne  a0, rec
        ldiq v0, 1
        ret
rec:    lda  sp, -16(sp)
        stq  ra, 0(sp)
        stq  a0, 8(sp)
        addqi a0, a0, -1
        call fact
        ldq  a0, 8(sp)
        ldq  ra, 0(sp)
        lda  sp, 16(sp)
        mulq v0, v0, a0
        ret
`

func TestRecursionAllConfigs(t *testing.T) {
	p, trace := build(t, factorialSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			runWith(t, p, trace, pol)
		})
	}
}

// A loop with an un-hoisted loop-invariant computation: classic general
// reuse fodder (paper §2.2).
const invariantSrc = `
        .text
main:   ldiq t3, 50
        clr  t4
outer:  ldiq t0, 1000          ; program constant, redundant per iteration
        addqi t1, t0, 24       ; loop-invariant, un-hoisted
        mulqi t2, t1, 3        ; dependent invariant chain
        addq t4, t4, t2
        addqi t3, t3, -1
        bne  t3, outer
        clr  v0
        mov  a0, t4
        syscall
`

func TestGeneralReuseIntegrates(t *testing.T) {
	p, trace := build(t, invariantSrc)

	base := runWith(t, p, trace, core.Policy{})
	if base.Integrated != 0 {
		t.Fatalf("no-integration config integrated %d", base.Integrated)
	}

	squash := runWith(t, p, trace, core.Policy{Enable: true, UseLISP: true})
	general := runWith(t, p, trace, core.Policy{Enable: true, GeneralReuse: true, UseLISP: true})

	if general.Integrated == 0 {
		t.Fatal("general reuse integrated nothing on loop-invariant code")
	}
	if general.Integrated <= squash.Integrated {
		t.Errorf("general (%d) should integrate more than squash-only (%d)",
			general.Integrated, squash.Integrated)
	}
	// The invariant chain is ~3 of 6 loop instructions; expect a
	// substantial rate.
	if general.IntegrationRate() < 0.2 {
		t.Errorf("integration rate %.3f, want >= 0.2", general.IntegrationRate())
	}
	// Integration must reduce executed instructions.
	if general.Executed >= base.Executed {
		t.Errorf("executed %d with integration >= %d without", general.Executed, base.Executed)
	}
	// And it should not hurt performance.
	if general.IPC() < base.IPC()*0.95 {
		t.Errorf("integration hurt IPC: %.3f vs %.3f", general.IPC(), base.IPC())
	}
}

// Save/restore around calls: the reverse-integration target.
const saveRestoreSrc = `
        .text
main:   ldiq s0, 7
        ldiq s1, 9
        ldiq t3, 100
loop:   mov  a0, s0
        call leaf
        addq s1, s1, v0
        addqi t3, t3, -1
        bne  t3, loop
        clr  v0
        mov  a0, s1
        syscall

leaf:   lda  sp, -32(sp)
        stq  ra, 0(sp)
        stq  s0, 8(sp)
        stq  s1, 16(sp)
        addq s0, a0, a0        ; clobber s0, s1
        addq s1, a0, s0
        addq v0, s0, s1
        ldq  s1, 16(sp)
        ldq  s0, 8(sp)
        ldq  ra, 0(sp)
        lda  sp, 32(sp)
        ret
`

func TestReverseIntegrationBypassesSaves(t *testing.T) {
	p, trace := build(t, saveRestoreSrc)

	opcode := runWith(t, p, trace, core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, UseLISP: true})
	reverse := runWith(t, p, trace, core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true})

	if reverse.IntegratedReverse == 0 {
		t.Fatal("reverse integration produced no reverse integrations on save/restore code")
	}
	if reverse.Integrated <= opcode.Integrated {
		t.Errorf("+reverse (%d) should integrate more than +opcode (%d)",
			reverse.Integrated, opcode.Integrated)
	}
	// Restores are SP loads; most should bypass.
	if reverse.SPLoadIntegrationRate() < 0.3 {
		t.Errorf("SP-load integration rate %.3f, want >= 0.3", reverse.SPLoadIntegrationRate())
	}
}

// Branchy, data-dependent program: exercises mispredicts, squashes and
// squash reuse.
const branchySrc = `
        .text
main:   ldiq t0, 4000
        ldiq t1, 1234567
        clr  t2
loop:   mulqi t1, t1, 1103515245
        addqi t1, t1, 12345
        andi t3, t1, 0xffff
        andi t4, t3, 1
        beq  t4, even
        addq t2, t2, t3
        br   next
even:   subq t2, t2, t3
next:   addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t2
        syscall
`

func TestBranchyWorkload(t *testing.T) {
	p, trace := build(t, branchySrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			st := runWith(t, p, trace, pol)
			if st.CondMispredicts == 0 {
				t.Error("data-dependent branches never mispredicted")
			}
		})
	}
}

// Memory traffic with store-load communication through a buffer.
const memTrafficSrc = `
        .text
main:   ldiq t0, 64
        ldiq t5, buf
        clr  t2
fill:   stq  t2, 0(t5)
        addqi t5, t5, 8
        addqi t2, t2, 3
        addqi t0, t0, -1
        bne  t0, fill
        ldiq t0, 64
        ldiq t5, buf
        clr  t3
sum:    ldq  t4, 0(t5)
        addq t3, t3, t4
        addqi t5, t5, 8
        addqi t0, t0, -1
        bne  t0, sum
        clr  v0
        mov  a0, t3
        syscall
        .data
buf:    .space 512
`

func TestMemoryTraffic(t *testing.T) {
	p, trace := build(t, memTrafficSrc)
	for name, pol := range paperPolicies() {
		t.Run(name, func(t *testing.T) {
			st := runWith(t, p, trace, pol)
			if st.LoadsRetired < 64 {
				t.Errorf("loads retired %d", st.LoadsRetired)
			}
		})
	}
}

// Store-to-load forwarding within the window.
const forwardSrc = `
        .text
main:   ldiq t0, 500
        ldiq t5, buf
        clr  t3
loop:   stq  t0, 0(t5)
        ldq  t4, 0(t5)         ; immediately reloaded: forwarded or bypassed
        addq t3, t3, t4
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t3
        syscall
        .data
buf:    .space 8
`

func TestStoreLoadForwarding(t *testing.T) {
	p, trace := build(t, forwardSrc)
	st := runWith(t, p, trace, core.Policy{})
	if st.LoadsForwarded == 0 {
		t.Error("no store-to-load forwarding observed")
	}
}

func TestOracleSuppression(t *testing.T) {
	p, trace := build(t, saveRestoreSrc)
	pol := core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, Oracle: true}
	st := runWith(t, p, trace, pol)
	if st.OracleResidual > st.MisIntegrations {
		t.Errorf("oracle residual %d > misintegrations %d", st.OracleResidual, st.MisIntegrations)
	}
}

// Random program generator: straight-line ALU/memory/branch soup with a
// couple of helper functions, self-terminating. Each generated program is
// run under every policy; the run itself asserts retirement-stream
// equivalence with the emulator (DIVA panics on divergence) and audits
// refcounts at halt.
func genRandomProgram(rng *rand.Rand) string {
	var b []byte
	add := func(s string, args ...interface{}) {
		b = append(b, []byte(fmt.Sprintf(s+"\n", args...))...)
	}
	add("        .text")
	add("main:   ldiq t0, %d", 50+rng.Intn(100))
	add("        ldiq t1, %d", rng.Intn(1<<20))
	add("        ldiq t5, data")
	add("        clr  t2")
	add("loop:")
	n := 3 + rng.Intn(12)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			add("        addqi t1, t1, %d", rng.Intn(100)-50)
		case 2:
			add("        mulqi t1, t1, %d", 3+rng.Intn(5))
		case 3:
			add("        xori t2, t1, %d", rng.Intn(1<<12))
		case 4:
			add("        stq  t1, %d(t5)", 8*rng.Intn(8))
		case 5:
			add("        ldq  t3, %d(t5)", 8*rng.Intn(8))
		case 6:
			add("        addq t2, t2, t3")
		case 7:
			add("        andi t4, t1, %d", 1+rng.Intn(7))
			add("        beq  t4, skip%d", i)
			add("        addqi t2, t2, 1")
			add("skip%d:", i)
		case 8:
			add("        mov  a0, t1")
			add("        call  helper")
			add("        addq t2, t2, v0")
		case 9:
			add("        srli t3, t1, %d", 1+rng.Intn(8))
			add("        subq t2, t2, t3")
		}
	}
	add("        addqi t0, t0, -1")
	add("        bne  t0, loop")
	add("        clr  v0")
	add("        mov  a0, t2")
	add("        syscall")
	add("helper: lda  sp, -16(sp)")
	add("        stq  s0, 8(sp)")
	add("        addqi s0, a0, %d", rng.Intn(64))
	add("        andi v0, s0, 255")
	add("        ldq  s0, 8(sp)")
	add("        lda  sp, 16(sp)")
	add("        ret")
	add("        .data")
	add("data:   .space 64")
	return string(b)
}

func TestRandomProgramsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20020715))
	for i := 0; i < 6; i++ {
		src := genRandomProgram(rng)
		p, trace := build(t, src)
		for name, pol := range paperPolicies() {
			t.Run(fmt.Sprintf("prog%d/%s", i, name), func(t *testing.T) {
				runWith(t, p, trace, pol)
			})
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := &Stats{Cycles: 100, Retired: 150, Integrated: 30, IntegratedReverse: 10,
		MisIntegrations: 3, CondMispredicts: 2, ResolutionLatency: 40, RSOccupancySum: 3100}
	if s.IPC() != 1.5 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if s.IntegrationRate() != 0.2 {
		t.Errorf("rate = %v", s.IntegrationRate())
	}
	if s.MisIntPerMillion() != 20000 {
		t.Errorf("mispm = %v", s.MisIntPerMillion())
	}
	if s.MispredictResolutionAvg() != 20 {
		t.Errorf("resolution = %v", s.MispredictResolutionAvg())
	}
	if s.AvgRSOccupancy() != 31 {
		t.Errorf("occupancy = %v", s.AvgRSOccupancy())
	}
	if distanceBucket(3) != 0 || distanceBucket(15) != 1 || distanceBucket(63) != 2 || distanceBucket(64) != 3 {
		t.Error("distance buckets wrong")
	}
	if refcountBucket(1) != 0 || refcountBucket(3) != 1 || refcountBucket(7) != 2 || refcountBucket(8) != 3 {
		t.Error("refcount buckets wrong")
	}
}
