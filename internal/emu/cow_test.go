package emu

import (
	"bytes"
	"testing"
)

// TestSnapshotIsolation pins the copy-on-write contract: a MemState
// captured by State is frozen at capture time — later writes through the
// live memory, including writes to the very pages the snapshot aliases,
// never show through.
func TestSnapshotIsolation(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0x1111)
	m.Write64(0x2000, 0x2222)

	st := m.State()
	if len(st.Pages) != 2 {
		t.Fatalf("%d snapshot pages, want 2", len(st.Pages))
	}

	// Overwrite a captured page, extend it, and touch a brand-new page.
	m.Write64(0x1000, 0xdead)
	m.Write8(0x2fff, 0xee)
	m.Write64(0x9000, 0x9999)

	if got := st.Pages[0x1][0]; got != 0x11 {
		t.Errorf("snapshot page 1 byte 0 = %#x after live write, want 0x11", got)
	}
	if got := st.Pages[0x2][pageMask]; got != 0 {
		t.Errorf("snapshot page 2 last byte = %#x after live write, want 0", got)
	}
	if _, ok := st.Pages[0x9]; ok {
		t.Error("page mapped after State leaked into the snapshot")
	}
	// The live memory sees its own writes, of course.
	if got := m.Read64(0x1000); got != 0xdead {
		t.Errorf("live Read64 = %#x, want 0xdead", got)
	}

	// Rebuilding from the snapshot reproduces the captured bytes.
	r, err := NewMemoryFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Read64(0x1000); got != 0x1111 {
		t.Errorf("restored Read64(0x1000) = %#x, want 0x1111", got)
	}
	if got := r.Read64(0x2000); got != 0x2222 {
		t.Errorf("restored Read64(0x2000) = %#x, want 0x2222", got)
	}
}

// TestSnapshotChain takes snapshots between writes and checks each stays
// pinned to its own point in time — the epoch bump must demote every
// page, not just the most recently written one.
func TestSnapshotChain(t *testing.T) {
	m := NewMemory()
	var snaps []MemState
	for i := 0; i < 4; i++ {
		m.Write64(0x4000, uint64(i))
		m.Write64(uint64(0x10000+i*pageSize), uint64(i))
		snaps = append(snaps, m.State())
	}
	for i, st := range snaps {
		r, err := NewMemoryFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Read64(0x4000); got != uint64(i) {
			t.Errorf("snapshot %d: Read64(0x4000) = %d, want %d", i, got, i)
		}
		if got := r.PageCount(); got != i+2 {
			t.Errorf("snapshot %d: %d pages, want %d", i, got, i+2)
		}
	}
}

// TestCloneWriteBothSides: after a copy through NewMemoryFromState(State()),
// writes on either side must not show through on the other, in both
// directions, even on the same page.
func TestCloneWriteBothSides(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 7)
	c, err := NewMemoryFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	m.Write64(0x1000, 8)
	c.Write64(0x1008, 9)
	if got := c.Read64(0x1000); got != 7 {
		t.Errorf("clone sees original's post-clone write: %d", got)
	}
	if got := m.Read64(0x1008); got != 0 {
		t.Errorf("original sees clone's write: %d", got)
	}
	// A snapshot of the clone is independent of both.
	st := c.State()
	c.Write64(0x1000, 99)
	if got := st.Pages[0x1][0]; got != 7 {
		t.Errorf("clone snapshot byte = %#x, want 7", got)
	}
}

// TestEmulatorStateWhileRunning captures emulator state mid-run and
// confirms continued execution does not disturb the snapshot — the
// pattern the sampled warm pass relies on when it snapshots boundaries
// from a still-advancing emulator.
func TestEmulatorStateWhileRunning(t *testing.T) {
	e := New(assemble(t, `
        .text
main:   ldiq t0, 64
        ldiq t2, 0x5000
loop:   stq  t0, 0(t2)
        addqi t2, t2, 8
        addqi t0, t0, -1
        bne  t0, loop
        clr  v0
        clr  a0
        syscall
`))
	for i := 0; i < 16; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.State()
	buf := make([]byte, pageSize)
	copy(buf, st.Mem.Pages[0x5])
	for !e.Halted {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, st.Mem.Pages[0x5]) {
		t.Error("continued execution mutated the captured snapshot page")
	}
	r, err := NewFromState(e.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Halted {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Count != e.Count || r.Mem.Read64(0x5000) != e.Mem.Read64(0x5000) {
		t.Error("resume from mid-run snapshot diverges from straight-through execution")
	}
}
