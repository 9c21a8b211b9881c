// Package core implements the paper's contribution: the integration table
// (IT), the load integration suppression predictor (LISP), and the
// integration decision logic that plugs into register renaming.
//
// The three extensions appear as policy switches:
//
//  1. General reuse — the regfile's ModeGeneral reference-counting
//     discipline, selected by Policy.GeneralReuse.
//  2. Opcode indexing — IndexOpcode with the call depth XOR-mixed into the
//     set index (Policy.OpcodeIndex).
//  3. Reverse integration — speculative memory bypassing entries for
//     stack-pointer stores and SP decrements (Policy.Reverse).
package core

import (
	"rix/internal/isa"
	"rix/internal/regfile"
)

// Entry is one integration-table record: an operation descriptor tuple
// <operation, input-preg1, input-preg2, output-preg> with generation
// counters (paper §2.2) plus branch-outcome and reverse-entry metadata.
type Entry struct {
	valid bool
	stamp uint64 // write stamp, guards stale invalidation

	// Tag.
	pc  uint64 // PC-indexed mode tag
	op  isa.Opcode
	imm int64

	// Register dataflow.
	in1, in2       regfile.PReg
	in1Gen, in2Gen uint8
	out            regfile.PReg
	outGen         uint8

	// Conditional-branch outcome entries carry the resolved direction
	// instead of an output register.
	isBranch bool
	taken    bool

	// Reverse-integration entries (extension 3).
	reverse bool

	createdSeq uint64 // rename sequence at creation, for distance stats
	lru        uint64
}

// Out returns the entry's output physical register and generation.
func (e *Entry) Out() (regfile.PReg, uint8) { return e.out, e.outGen }

// IsReverse reports whether this is a reverse-integration entry.
func (e *Entry) IsReverse() bool { return e.reverse }

// Taken returns a branch entry's recorded outcome.
func (e *Entry) Taken() bool { return e.taken }

// CreatedSeq returns the rename sequence number at entry creation.
func (e *Entry) CreatedSeq() uint64 { return e.createdSeq }

// Stamp returns the entry's write stamp (changes on every overwrite).
func (e *Entry) Stamp() uint64 { return e.stamp }

// IndexMode selects the IT indexing scheme.
type IndexMode uint8

const (
	// IndexPC is the baseline squash-reuse scheme: set index and tag both
	// come from the instruction PC.
	IndexPC IndexMode = iota
	// IndexOpcode is extension 2: the set index XOR-mixes opcode,
	// immediate, and (optionally) the dynamic call depth; the tag is the
	// minimal opcode/immediate pair.
	IndexOpcode
)

// TableConfig sizes the IT.
type TableConfig struct {
	Entries      int // total entries (default 1024)
	Assoc        int // ways; 0 = fully associative
	Mode         IndexMode
	UseCallDepth bool // XOR call depth into the index (opcode mode)
}

func (c TableConfig) withDefaults() TableConfig {
	if c.Entries == 0 {
		c.Entries = 1024
	}
	if c.Assoc <= 0 || c.Assoc > c.Entries {
		c.Assoc = c.Entries // fully associative
	}
	return c
}

// Key identifies the IT set and tag for one operation instance.
type Key struct {
	PC    uint64
	Op    isa.Opcode
	Imm   int64
	Depth int // dynamic call depth (RAS TOS index)
}

// Table is the set-associative, LRU-managed integration table. Direct and
// reverse entries share the structure (the paper's unified design).
type Table struct {
	cfg     TableConfig
	entries []Entry   // every entry, set-major
	sets    [][]Entry // entries sliced per set
	tick    uint64
	stamp   uint64

	Lookups  uint64
	Matches  uint64
	Inserts  uint64
	Replaced uint64
}

// NewTable builds an IT.
func NewTable(cfg TableConfig) *Table {
	cfg = cfg.withDefaults()
	nSets := max(cfg.Entries/cfg.Assoc, 1)
	t := &Table{cfg: cfg, entries: make([]Entry, nSets*cfg.Assoc), sets: make([][]Entry, nSets)}
	// One flat backing array sliced per set: building a table is two
	// allocations, not one per set.
	entries := t.entries
	for i := range t.sets {
		t.sets[i], entries = entries[:cfg.Assoc:cfg.Assoc], entries[cfg.Assoc:]
	}
	return t
}

// Reset returns the table to the state NewTable(cfg) builds, in place,
// and reports whether it could: cfg must give the table's own number
// of sets and ways (its indexing mode may differ).
func (t *Table) Reset(cfg TableConfig) bool {
	cfg = cfg.withDefaults()
	nSets := max(cfg.Entries/cfg.Assoc, 1)
	if nSets != len(t.sets) || cfg.Assoc != len(t.sets[0]) {
		return false
	}
	clear(t.entries)
	*t = Table{cfg: cfg, entries: t.entries, sets: t.sets}
	return true
}

// Config returns the table geometry.
func (t *Table) Config() TableConfig { return t.cfg }

// index computes the set index for a key. In opcode mode the index is the
// XOR of opcode, immediate and call depth (paper §2.3); deliberately not a
// strong hash — the clustering of common opcode/immediate combinations,
// and its relief via the call depth, are the phenomena under study.
func (t *Table) index(k Key) int {
	n := uint64(len(t.sets))
	if t.cfg.Mode == IndexPC {
		return int((k.PC >> 2) % n)
	}
	mix := uint64(k.Op)
	mix ^= uint64(k.Imm) ^ uint64(k.Imm)>>7
	if t.cfg.UseCallDepth {
		mix ^= uint64(k.Depth) << 2
	}
	return int(mix % n)
}

// tagMatch checks the minimal tag: full PC in PC mode, opcode/immediate in
// opcode mode.
func (t *Table) tagMatch(e *Entry, k Key) bool {
	if !e.valid {
		return false
	}
	if t.cfg.Mode == IndexPC {
		return e.pc == k.PC && e.op == k.Op && e.imm == k.Imm
	}
	return e.op == k.Op && e.imm == k.Imm
}

// Match finds an entry whose tag and input operands (register numbers and
// generations) match. The input comparison is the operational equivalence
// test: same operation on the same physical registers.
func (t *Table) Match(k Key, in1 regfile.PReg, in1Gen uint8, in2 regfile.PReg, in2Gen uint8) *Entry {
	t.Lookups++
	set := t.sets[t.index(k)]
	for i := range set {
		e := &set[i]
		if !t.tagMatch(e, k) {
			continue
		}
		if e.in1 != in1 || e.in2 != in2 {
			continue
		}
		if e.in1 != regfile.NoReg && e.in1Gen != in1Gen {
			continue
		}
		if e.in2 != regfile.NoReg && e.in2Gen != in2Gen {
			continue
		}
		t.tick++
		e.lru = t.tick
		t.Matches++
		return e
	}
	return nil
}

// Insert writes an entry for key k, replacing an existing entry with the
// same tag and inputs if present (refresh), otherwise the LRU way.
func (t *Table) Insert(k Key, e Entry) *Entry {
	t.Inserts++
	t.tick++
	t.stamp++
	set := t.sets[t.index(k)]
	victim := 0
	found := false
	for i := range set {
		c := &set[i]
		if t.tagMatch(c, k) && c.in1 == e.in1 && c.in2 == e.in2 && c.reverse == e.reverse {
			victim, found = i, true
			break
		}
		if !c.valid {
			if !found {
				victim, found = i, true
			}
			continue
		}
		if !found && c.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && !found {
		t.Replaced++
	}
	e.valid = true
	e.pc = k.PC
	e.op = k.Op
	e.imm = k.Imm
	e.lru = t.tick
	e.stamp = t.stamp
	set[victim] = e
	return &set[victim]
}

// Invalidate clears an entry if it still holds the record identified by
// stamp (mis-integration feedback).
func (t *Table) Invalidate(e *Entry, stamp uint64) {
	if e != nil && e.valid && e.stamp == stamp {
		e.valid = false
	}
}

// Occupancy counts valid entries (tests and diagnostics).
func (t *Table) Occupancy() int {
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
