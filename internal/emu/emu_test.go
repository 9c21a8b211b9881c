package emu

import (
	"testing"

	"rix/internal/asm"
	"rix/internal/isa"
	"rix/internal/prog"
)

func assemble(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, src string) *Emulator {
	t.Helper()
	e := New(assemble(t, src))
	if err := e.Run(1 << 22); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x1000) != 0 {
		t.Error("unmapped read not zero")
	}
	if m.PageCount() != 0 {
		t.Error("unmapped read allocated a page")
	}
	m.Write64(0x1000, 0x1122334455667788)
	if got := m.Read64(0x1000); got != 0x1122334455667788 {
		t.Errorf("Read64 = %#x", got)
	}
	if got := m.Read32(0x1000); got != 0x55667788 {
		t.Errorf("Read32 = %#x", got)
	}
	// Sign extension of 32-bit reads.
	m.Write32(0x2000, 0xffffffff)
	if got := m.Read32(0x2000); got != ^uint64(0) {
		t.Errorf("Read32 sign-extend = %#x", got)
	}
	// Unaligned and page-crossing access.
	m.Write64(0x2ffd, 0xa1b2c3d4e5f60718)
	if got := m.Read64(0x2ffd); got != 0xa1b2c3d4e5f60718 {
		t.Errorf("unaligned Read64 = %#x", got)
	}
	// A copy restored from a snapshot is independent of the original.
	c, err := NewMemoryFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	c.Write64(0x1000, 42)
	if m.Read64(0x1000) == 42 {
		t.Error("restored copy shares pages with original")
	}
}

func TestCountdownLoop(t *testing.T) {
	e := run(t, `
        .text
main:   ldiq t0, 10
        clr  t1
loop:   addq t1, t1, t0
        addqi t0, t0, -1
        bne  t0, loop
        mov  a0, t1
        ldiq v0, 1
        syscall             ; putint(sum)
        clr  v0
        clr  a0
        syscall             ; exit(0)
`)
	if string(e.Output) != "55\n" {
		t.Errorf("output = %q, want 55", e.Output)
	}
	if e.ExitCode != 0 {
		t.Errorf("exit = %d", e.ExitCode)
	}
}

func TestMemoryProgram(t *testing.T) {
	e := run(t, `
        .text
main:   ldiq t0, tbl
        ldq  t1, 0(t0)
        ldq  t2, 8(t0)
        addq t3, t1, t2
        stq  t3, 16(t0)
        ldq  a0, 16(t0)
        ldiq v0, 1
        syscall
        clr  v0
        syscall
        .data
tbl:    .word 40, 2
        .space 8
`)
	if string(e.Output) != "42\n" {
		t.Errorf("output = %q", e.Output)
	}
}

func TestRecursionWithStack(t *testing.T) {
	// fact(10) via the classic save/restore idiom — the reverse
	// integration target pattern.
	e := run(t, `
        .text
main:   ldiq a0, 10
        call fact
        mov  a0, v0
        ldiq v0, 1
        syscall
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
`)
	if string(e.Output) != "3628800\n" {
		t.Errorf("fact(10) = %q, want 3628800", e.Output)
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	e := run(t, `
        .text
main:   ldiq pv, double
        ldiq a0, 21
        jsr  (pv)
        mov  a0, v0
        ldiq v0, 1
        syscall
        clr  v0
        syscall
double: addq v0, a0, a0
        ret
`)
	if string(e.Output) != "42\n" {
		t.Errorf("output = %q", e.Output)
	}
}

func TestFloatingPoint(t *testing.T) {
	e := run(t, `
        .text
main:   ldiq t0, 6
        ldiq t1, 7
        cvtqt t2, t0
        cvtqt t3, t1
        fmul t4, t2, t3
        cvttq a0, t4
        ldiq v0, 1
        syscall
        clr  v0
        syscall
`)
	if string(e.Output) != "42\n" {
		t.Errorf("output = %q", e.Output)
	}
}

func TestPutc(t *testing.T) {
	e := run(t, `
        .text
main:   ldiq v0, 2
        ldiq a0, 'h'
        syscall
        ldiq a0, 'i'
        syscall
        clr  v0
        syscall
`)
	if string(e.Output) != "hi" {
		t.Errorf("output = %q", e.Output)
	}
}

func TestExitCode(t *testing.T) {
	e := run(t, `
        .text
main:   clr  v0
        ldiq a0, 7
        syscall
`)
	if e.ExitCode != 7 || !e.Halted {
		t.Errorf("exit = %d halted=%v", e.ExitCode, e.Halted)
	}
}

func TestRunBudget(t *testing.T) {
	e := New(assemble(t, `
        .text
main:   br main
`))
	if err := e.Run(1000); err == nil {
		t.Error("infinite loop did not report budget exhaustion")
	}
}

func TestTraceMatchesExecution(t *testing.T) {
	p := assemble(t, `
        .text
main:   ldiq t0, 5
        clr  t1
loop:   addq t1, t1, t0
        stq  t1, buf
        ldq  t2, buf
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        mov  a0, t1
        syscall
        .data
buf:    .space 8
`)
	recs, e, err := Trace(p, 1<<20)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if uint64(len(recs)) != e.Count {
		t.Fatalf("trace len %d != count %d", len(recs), e.Count)
	}
	// Re-execute and compare every record.
	e2 := New(p)
	for i, want := range recs {
		pcIdx, _ := p.CodeIndex(e2.PC)
		if pcIdx != int(want.CodeIdx) {
			t.Fatalf("rec %d: pc idx %d, want %d", i, pcIdx, want.CodeIdx)
		}
		got, err := e2.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("rec %d: %+v != %+v", i, got, want)
		}
	}
	// Loads and stores to buf must carry the address.
	bufAddr := p.Symbols["buf"]
	sawStore := false
	for _, r := range recs {
		in := p.Code[r.CodeIdx]
		if in.Op == isa.STQ {
			sawStore = true
			if r.Addr != bufAddr {
				t.Errorf("store addr %#x, want %#x", r.Addr, bufAddr)
			}
		}
	}
	if !sawStore {
		t.Error("no store records in trace")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	e := run(t, `
        .text
main:   addqi zero, zero, 5
        mov  a0, zero
        ldiq v0, 1
        syscall
        clr  v0
        syscall
`)
	if string(e.Output) != "0\n" {
		t.Errorf("zero register was written: %q", e.Output)
	}
}

func TestBadPC(t *testing.T) {
	p := assemble(t, `
        .text
main:   ldiq t0, 0x9999
        jmp (t0)
`)
	e := New(p)
	_, _ = e.Step()
	_, _ = e.Step()
	if _, err := e.Step(); err == nil {
		t.Error("jump outside text did not error")
	}
}
