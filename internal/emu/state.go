package emu

import (
	"fmt"

	"rix/internal/isa"
	"rix/internal/prog"
)

// State is the complete serializable architectural state of an Emulator at
// an instruction boundary: registers, PC, halt status, program output, the
// retired-instruction count, and the memory image. It is the emulator half
// of a sampling checkpoint (internal/sample) — restoring a State and
// stepping forward reproduces execution exactly.
//
// All fields are exported so the struct round-trips through encoding/gob
// unchanged; State and MemState must remain stable once checkpoints are
// written to disk (bump sample's checkpoint format version on change).
type State struct {
	Regs     [isa.NumLogical]uint64
	PC       uint64
	Halted   bool
	ExitCode uint64
	Output   []byte
	Count    uint64
	Mem      MemState
}

// MemState is the serializable form of a sparse Memory: page number →
// page image. Only resident pages appear.
//
// A MemState produced by Memory.State aliases the memory's page arrays
// copy-on-write rather than duplicating them; treat its pages as
// immutable. Serializing it, comparing it, or rebuilding a Memory with
// NewMemoryFromState are all safe — from any goroutine — because the
// source memory clones a shared page before ever writing to it again.
type MemState struct {
	Pages map[uint64][]byte
}

// State captures the memory in its serializable form. The snapshot is
// O(resident pages) map work, not a byte copy: the returned pages alias
// the live arrays, and the memory's next write to any captured page
// copies that page first (see Memory). State mutates the sharing
// bookkeeping and must be called from the owning goroutine.
func (m *Memory) State() MemState {
	st := MemState{Pages: make(map[uint64][]byte, len(m.pages))}
	m.stateInto(st.Pages)
	return st
}

// stateInto is State into an empty page map.
func (m *Memory) stateInto(pages map[uint64][]byte) {
	for pn, p := range m.pages {
		pages[pn] = p[:] //rix:shared — copy-on-write: the memory clones a captured page before writing to it
	}
	m.epoch++
	m.lastWPN, m.lastW = 0, nil
}

// NewMemoryFromState rebuilds an address space from a snapshot without
// copying it: the new memory shares the snapshot's page
// arrays and copies a page privately before its first write to it, so
// the snapshot stays frozen (and may seed any number of memories, from
// any goroutine). Pages of the wrong size are rejected.
func NewMemoryFromState(st MemState) (*Memory, error) {
	m := &Memory{
		pages:  make(map[uint64]*page, len(st.Pages)),
		epochs: make(map[uint64]uint64),
		epoch:  1, // a missing epochs entry reads 0: every inherited page is shared
	}
	for pn, img := range st.Pages {
		if len(img) != pageSize {
			return nil, fmt.Errorf("emu: page %#x has %d bytes, want %d", pn, len(img), pageSize)
		}
		m.pages[pn] = (*page)(img) //rix:shared — copy-on-write: the memory clones the page before its first write
	}
	return m, nil
}

// State captures the emulator's architectural state (deep copy; the
// emulator may keep running afterwards).
func (e *Emulator) State() State {
	var st State
	e.StateInto(&st)
	return st
}

// StateInto is State into a reused destination: dst's output buffer and
// page map are refilled in place, so once they are sized a capture
// allocates nothing. Whatever dst held before is overwritten, so nobody
// may still be reading it.
func (e *Emulator) StateInto(dst *State) {
	dst.Regs, dst.PC, dst.Halted, dst.ExitCode, dst.Count = e.Regs, e.PC, e.Halted, e.ExitCode, e.Count
	dst.Output = append(dst.Output[:0], e.Output...)
	if dst.Mem.Pages == nil {
		dst.Mem.Pages = make(map[uint64][]byte, len(e.Mem.pages))
	}
	clear(dst.Mem.Pages)
	e.Mem.stateInto(dst.Mem.Pages)
}

// NewFromState rebuilds an emulator mid-execution. The program must be the
// one the state was captured from; the emulator resumes at st.PC with
// st.Count instructions already retired.
func NewFromState(p *prog.Program, st State) (*Emulator, error) {
	mem, err := NewMemoryFromState(st.Mem)
	if err != nil {
		return nil, err
	}
	e := &Emulator{
		Prog:     p,
		Mem:      mem,
		Regs:     st.Regs,
		PC:       st.PC,
		Halted:   st.Halted,
		ExitCode: st.ExitCode,
		Count:    st.Count,
	}
	e.Output = append([]byte(nil), st.Output...)
	return e, nil
}
