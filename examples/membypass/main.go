// The membypass example walks through the paper's Figure 3: speculative
// memory bypassing of register saves and restores via reverse
// integration. It drives the integration machinery directly (integration
// table + reference-counted register file + map table) and narrates every
// rename decision, then runs the same pattern through the full pipeline.
package main

import (
	"context"
	"fmt"
	"log"

	"rix/internal/core"
	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
	"rix/internal/run"
	"rix/internal/sim"
)

func main() {
	fmt.Println("=== Figure 3 walkthrough: reverse integration at the rename stage ===")
	fmt.Println()
	walkthrough()
	fmt.Println()
	fmt.Println("=== The same idiom through the full pipeline ===")
	fmt.Println()
	pipelineDemo()
}

// walkthrough replays Figure 3's dynamic instruction stream.
func walkthrough() {
	rf := regfile.New(regfile.Config{NumRegs: 64, GenBits: 4, RefBits: 4, GeneralMode: true})
	g := core.New(
		core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true},
		core.TableConfig{Entries: 64, Assoc: 4}, core.NewLISP(core.LISPConfig{}), rf, nil)
	m := rename.NewMapTable()
	seq := uint64(0)

	seed := func(l isa.Reg, v uint64) {
		p, _ := rf.Alloc()
		rf.SetReady(p, v)
		m.Set(l, rename.Mapping{P: p, Gen: rf.Gen(p)})
	}
	seed(isa.RegT0, 111) // t0: caller-saved value
	seed(isa.RegS0, 222) // s0: callee-saved value
	seed(isa.RegSP, 0x8000)

	step := func(comment string, in isa.Instr, pc uint64, depth int) {
		seq++
		in1, in2 := m.Get(in.Ra), m.Get(in.Rb)
		k, set := g.Locate(in, pc, depth)
		res, _, ok := g.TryIntegrate(in, k, set, seq, m, nil)
		var dest, old rename.Mapping
		switch {
		case ok:
			dest = rename.Mapping{P: res.Out, Gen: res.OutGen}
			old = m.Set(in.Rd, dest)
		case in.Op.HasDest() && in.Rd != isa.RegZero:
			p, _ := rf.Alloc()
			rf.SetReady(p, 0)
			dest = rename.Mapping{P: p, Gen: rf.Gen(p)}
			old = m.Set(in.Rd, dest)
		}
		g.NoteRenamed(in, k, set, seq, in1, in2, dest, old, ok)
		tag := " "
		if ok {
			tag = "*"
		}
		fmt.Printf(" %s %-24s ; %s", tag, isa.Disasm(in, 0), comment)
		if ok {
			fmt.Printf("  -> INTEGRATED p%d", res.Out)
			if res.Reverse {
				fmt.Printf(" (reverse entry)")
			}
		}
		fmt.Println()
	}

	t0p := m.Get(isa.RegT0).P
	s0p := m.Get(isa.RegS0).P
	spp := m.Get(isa.RegSP).P
	fmt.Printf("   initial mappings: t0->p%d, s0->p%d, sp->p%d\n\n", t0p, s0p, spp)

	step("caller save: creates reverse ldq entry",
		isa.Instr{Op: isa.STQ, Ra: isa.RegSP, Rb: isa.RegT0, Imm: 8}, 0x100, 0)
	step("open frame: creates reverse lda +32 entry",
		isa.Instr{Op: isa.LDA, Rd: isa.RegSP, Ra: isa.RegSP, Imm: -32}, 0x200, 1)
	step("callee save: creates reverse ldq entry",
		isa.Instr{Op: isa.STQ, Ra: isa.RegSP, Rb: isa.RegS0, Imm: 4}, 0x204, 1)
	step("function body clobbers t0",
		isa.Instr{Op: isa.ADDQI, Rd: isa.RegT0, Ra: isa.RegT0, Imm: 7}, 0x208, 1)
	step("function body clobbers s0",
		isa.Instr{Op: isa.ADDQI, Rd: isa.RegS0, Ra: isa.RegS0, Imm: 9}, 0x20c, 1)
	step("callee restore",
		isa.Instr{Op: isa.LDQ, Rd: isa.RegS0, Ra: isa.RegSP, Imm: 4}, 0x210, 1)
	step("close frame",
		isa.Instr{Op: isa.LDA, Rd: isa.RegSP, Ra: isa.RegSP, Imm: 32}, 0x214, 1)
	step("caller restore",
		isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: isa.RegSP, Imm: 8}, 0x104, 0)

	fmt.Printf("\n   final mappings:   t0->p%d, s0->p%d, sp->p%d (originals restored: %v %v %v)\n",
		m.Get(isa.RegT0).P, m.Get(isa.RegS0).P, m.Get(isa.RegSP).P,
		m.Get(isa.RegT0).P == t0p, m.Get(isa.RegS0).P == s0p, m.Get(isa.RegSP).P == spp)
}

const demoSrc = `
        .text
main:   ldiq s0, 800
        ldiq s1, 5
loop:   mov  a0, s1
        call f
        mov  s1, v0
        addqi s0, s0, -1
        bne  s0, loop
        clr  v0
        clr  a0
        syscall
f:      lda  sp, -32(sp)
        stq  ra, 0(sp)
        stq  s2, 8(sp)
        stq  s3, 16(sp)
        addqi s2, a0, 3
        addqi s3, a0, 5
        addq v0, s2, s3
        andi v0, v0, 4095
        ldq  s3, 16(sp)
        ldq  s2, 8(sp)
        ldq  ra, 0(sp)
        lda  sp, 32(sp)
        ret
`

func pipelineDemo() {
	// Each run.Do call assembles the inline source and streams its own
	// golden trace straight from the emulator.
	ctx := context.Background()
	noRevRes, err := run.Do(ctx, run.Request{
		Source: demoSrc, SourceName: "membypass.s",
		Options: sim.Options{Integration: sim.IntOpcode},
	})
	if err != nil {
		log.Fatal(err)
	}
	revRes, err := run.Do(ctx, run.Request{
		Source: demoSrc, SourceName: "membypass.s",
		Options: sim.Options{Integration: sim.IntReverse},
	})
	if err != nil {
		log.Fatal(err)
	}
	noRev, rev := &noRevRes.Stats, &revRes.Stats
	fmt.Printf("without reverse integration: %5.1f%% of sp loads bypass, IPC %.3f\n",
		100*noRev.SPLoadIntegrationRate(), noRev.IPC())
	fmt.Printf("with    reverse integration: %5.1f%% of sp loads bypass, IPC %.3f\n",
		100*rev.SPLoadIntegrationRate(), rev.IPC())
	fmt.Printf("reverse integrations retired: %d (%.1f%% of all instructions)\n",
		rev.IntegratedReverse, 100*rev.ReverseRate())
}
