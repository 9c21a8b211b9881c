package emu

import (
	"reflect"
	"testing"

	"rix/internal/asm"
	"rix/internal/prog"
)

// stateProg is a small looping program with memory traffic so state
// snapshots cover registers, memory, and output.
const stateProgSrc = `
        .text
main:   clr   t0
        ldiq  t1, 64
loop:   stq   t0, 0(gp)
        ldq   t2, 0(gp)
        addq  t0, t2, t0
        addqi t0, t0, 1
        addqi t1, t1, -1
        bne   t1, loop
        andi  a0, t0, 65535
        ldiq  v0, 1
        syscall
        clr   v0
        clr   a0
        syscall
        .data
buf:    .space 64
`

func buildStateProg(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.Assemble("state.s", stateProgSrc)
	if err != nil {
		t.Fatalf("state test program does not assemble: %v", err)
	}
	return p
}

// TestStateResumeEquivalence checkpoints mid-run and verifies the
// resumed emulator produces exactly the remaining trace.
func TestStateResumeEquivalence(t *testing.T) {
	p := buildStateProg(t)
	full, _, err := Trace(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 20 {
		t.Fatalf("test program too short: %d records", len(full))
	}
	cut := len(full) / 2

	s := Stream(p, 1<<20)
	for i := 0; i < cut; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	ck := s.Emulator().State()
	if ck.Count != uint64(cut) {
		t.Fatalf("checkpoint count %d, want %d", ck.Count, cut)
	}

	rs, err := ResumeStream(p, ck, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := Materialize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, full[cut:]) {
		t.Fatalf("resumed trace diverges from the original suffix")
	}
}

// TestLimit verifies clean truncation semantics: bounded record count,
// nil Err on the cut, and pass-through when the limit exceeds the stream.
func TestLimit(t *testing.T) {
	p := buildStateProg(t)
	full, _, err := Trace(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	lim := Limit(FromSlice(full), 10)
	got, err := Materialize(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || !reflect.DeepEqual(got, full[:10]) {
		t.Fatalf("limited stream: %d records", len(got))
	}
	if err := lim.Err(); err != nil {
		t.Fatalf("truncation reported error: %v", err)
	}
	// A limit past the end passes the stream through unchanged.
	all, err := Materialize(Limit(FromSlice(full), uint64(len(full))+100))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(full) {
		t.Fatalf("over-limit stream truncated: %d of %d", len(all), len(full))
	}
}

// TestMemoryStateRoundTrip pins the memory snapshot encoding.
func TestMemoryStateRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafe)
	m.Write32(0x2004, 0x1234)
	m.Write8(0x7ffff8, 0xab)
	st := m.State()
	back, err := NewMemoryFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0x1000, 0x2004, 0x7ffff8, 0x9999} {
		if got, want := back.Read64(addr), m.Read64(addr); got != want {
			t.Errorf("addr %#x: %#x != %#x", addr, got, want)
		}
	}
	if back.PageCount() != m.PageCount() {
		t.Errorf("page count %d != %d", back.PageCount(), m.PageCount())
	}
	st.Pages[0] = []byte{1, 2, 3} // short page must be rejected
	if _, err := NewMemoryFromState(st); err == nil {
		t.Error("short page accepted")
	}
}
