package core

import (
	"fmt"

	"rix/internal/isa"
	"rix/internal/regfile"
)

// This file holds the serializable state snapshots of the integration
// table and the LISP — the core-side state hooks of the sampling
// subsystem. Unlike caches and branch predictors, IT entries name
// physical registers, which exist only inside one pipeline instance, so
// the functional fast-forward cannot warm the IT across windows; instead
// each detailed window warms it during its warmup prefix
// (pipeline.RunWindowContext). The hooks exist so pipeline.BootState
// can seed either structure (tests, future pipeline-state checkpoints)
// and so tooling can inspect or persist their contents.

// EntryState is one IT entry's serializable form. Zero-valued fields of
// an invalid entry are meaningless.
type EntryState struct {
	Valid bool
	Stamp uint64

	PC  uint64
	Op  isa.Opcode
	Imm int64

	In1, In2       regfile.PReg
	In1Gen, In2Gen uint8
	Out            regfile.PReg
	OutGen         uint8

	IsBranch bool
	Taken    bool
	Reverse  bool

	CreatedSeq uint64
	LRU        uint64
}

// TableState is the serializable state of an integration table: entries
// flattened set-major plus the LRU clock and write stamp.
type TableState struct {
	Entries []EntryState
	Tick    uint64
	Stamp   uint64
}

// State deep-copies the table contents.
func (t *Table) State() TableState {
	st := TableState{Entries: make([]EntryState, 0, len(t.sets)*t.cfg.Assoc), Tick: t.tick, Stamp: t.stamp}
	for _, set := range t.sets {
		for i := range set {
			e := &set[i]
			st.Entries = append(st.Entries, EntryState{
				Valid: e.valid, Stamp: e.stamp,
				PC: e.pc, Op: e.op, Imm: e.imm,
				In1: e.in1, In2: e.in2, In1Gen: e.in1Gen, In2Gen: e.in2Gen,
				Out: e.out, OutGen: e.outGen,
				IsBranch: e.isBranch, Taken: e.taken, Reverse: e.reverse,
				CreatedSeq: e.createdSeq, LRU: e.lru,
			})
		}
	}
	return st
}

// SetState restores a snapshot; the geometry (total entry count) must
// match. The caller is responsible for the physical-register identities
// the entries name being meaningful in the consuming pipeline.
func (t *Table) SetState(st TableState) error {
	if len(st.Entries) != len(t.sets)*t.cfg.Assoc {
		return fmt.Errorf("core: IT state has %d entries, want %d",
			len(st.Entries), len(t.sets)*t.cfg.Assoc)
	}
	k := 0
	for _, set := range t.sets {
		for i := range set {
			e := st.Entries[k]
			set[i] = Entry{
				valid: e.Valid, stamp: e.Stamp,
				pc: e.PC, op: e.Op, imm: e.Imm,
				in1: e.In1, in2: e.In2, in1Gen: e.In1Gen, in2Gen: e.In2Gen,
				out: e.Out, outGen: e.OutGen,
				isBranch: e.IsBranch, taken: e.Taken, reverse: e.Reverse,
				createdSeq: e.CreatedSeq, lru: e.LRU,
			}
			k++
		}
	}
	t.tick = st.Tick
	t.stamp = st.Stamp
	return nil
}

// LISPEntryState is one LISP entry's serializable form.
type LISPEntryState struct {
	Valid bool
	PC    uint64
	LRU   uint64
}

// LISPState is the serializable state of a LISP: entries flattened
// set-major plus the LRU clock. LISP state is purely PC-keyed, so unlike
// TableState it is meaningful across pipeline instances.
type LISPState struct {
	Entries []LISPEntryState
	Tick    uint64
}

// State deep-copies the predictor contents.
func (l *LISP) State() LISPState {
	st := LISPState{Entries: make([]LISPEntryState, 0, len(l.sets)*l.assoc), Tick: l.tick}
	for _, set := range l.sets {
		for i := range set {
			e := &set[i]
			st.Entries = append(st.Entries, LISPEntryState{Valid: e.valid, PC: e.pc, LRU: e.lru})
		}
	}
	return st
}

// CopyFrom overwrites l with src's behavioral state without allocating —
// the buffer-reuse path of the sampling engine's pooled window boots.
// Diagnostic tallies restart at zero, as in a fresh NewLISP + SetState.
func (l *LISP) CopyFrom(src *LISP) error {
	if len(src.sets) != len(l.sets) || src.assoc != l.assoc {
		return fmt.Errorf("core: LISP copy geometry %dx%d, want %dx%d",
			len(src.sets), src.assoc, len(l.sets), l.assoc)
	}
	for i := range l.sets {
		copy(l.sets[i], src.sets[i])
	}
	l.tick = src.tick
	l.Lookups, l.Suppressed, l.TrainInsert = 0, 0, 0
	return nil
}

// SetState restores a snapshot; the geometry must match.
func (l *LISP) SetState(st LISPState) error {
	if len(st.Entries) != len(l.sets)*l.assoc {
		return fmt.Errorf("core: LISP state has %d entries, want %d",
			len(st.Entries), len(l.sets)*l.assoc)
	}
	k := 0
	for _, set := range l.sets {
		for i := range set {
			e := st.Entries[k]
			set[i] = lispEntry{valid: e.Valid, pc: e.PC, lru: e.LRU}
			k++
		}
	}
	l.tick = st.Tick
	return nil
}
