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
// Its fields are ordered widest first, so it packs into 56 bytes.
type Entry struct {
	stamp uint64 // write stamp, guards stale invalidation

	// Tag (with op, below).
	pc  uint64 // PC-indexed mode tag
	imm int64

	createdSeq uint64 // rename sequence at creation, for distance stats
	lru        uint64

	// Register dataflow.
	in1, in2, out          regfile.PReg
	op                     isa.Opcode
	in1Gen, in2Gen, outGen uint8

	valid bool

	// Conditional-branch outcome entries carry the resolved direction
	// instead of an output register.
	isBranch bool
	taken    bool

	// Reverse-integration entries (extension 3).
	reverse bool
}

// Out returns the entry's output physical register and generation.
func (e *Entry) Out() (regfile.PReg, uint8) { return e.out, e.outGen }

// Taken returns a branch entry's recorded outcome.
func (e *Entry) Taken() bool { return e.taken }

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
//
// Rename finds an instruction's set once (Index) and hands it to both
// Match and Insert.
type Table struct {
	cfg     TableConfig
	entries []Entry   // every entry, set-major
	sets    [][]Entry // entries sliced per set
	setMask uint64    // set count - 1, the index mask of a power-of-two count
	setMod  uint64    // the set count when it is not a power of two, else 0
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
	if nSets&(nSets-1) == 0 {
		t.setMask = uint64(nSets - 1)
	} else {
		t.setMod = uint64(nSets)
	}
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
	*t = Table{cfg: cfg, entries: t.entries, sets: t.sets, setMask: t.setMask, setMod: t.setMod}
	return true
}

// Config returns the table geometry.
func (t *Table) Config() TableConfig { return t.cfg }

// Index returns the set index of key k. In opcode mode it is the XOR
// of opcode, immediate and call depth (paper §2.3); deliberately not a
// strong hash — the clustering of common opcode/immediate combinations,
// and its relief via the call depth, are the phenomena under study. A
// power-of-two set count (every shipped geometry) takes the index by
// mask, any other by modulo.
func (t *Table) Index(k Key) int {
	var h uint64
	if t.cfg.Mode == IndexPC {
		h = k.PC >> 2
	} else {
		h = uint64(k.Op) ^ uint64(k.Imm) ^ uint64(k.Imm)>>7
		if t.cfg.UseCallDepth {
			h ^= uint64(k.Depth) << 2
		}
	}
	if t.setMod != 0 {
		return int(h % t.setMod)
	}
	return int(h & t.setMask)
}

// Match finds an entry of set (Index(k)) whose tag and input operands
// (register numbers and generations) match. The input comparison is the
// operational equivalence test: same operation on the same physical
// registers.
//
//rix:hotpath
func (t *Table) Match(k Key, set int, in1 regfile.PReg, in1Gen uint8, in2 regfile.PReg, in2Gen uint8) *Entry {
	t.Lookups++
	pcTag := t.cfg.Mode == IndexPC
	ways := t.sets[set]
	for i := range ways {
		e := &ways[i]
		// The minimal tag: opcode/immediate, and the full PC in PC mode.
		if !e.valid || e.op != k.Op || e.imm != k.Imm || pcTag && e.pc != k.PC {
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

// Insert claims the entry for key k in set (Index(k)): the way already
// holding k's tag with the same inputs and direction (a refresh), else
// the first invalid way, else the LRU way. It writes the tag, the input
// registers and the direction in place, zeroes every other field and
// returns the entry for the caller to fill in.
//
//rix:hotpath
func (t *Table) Insert(k Key, set int, in1, in2 regfile.PReg, reverse bool) *Entry {
	t.Inserts++
	t.tick++
	t.stamp++
	pcTag := t.cfg.Mode == IndexPC
	ways := t.sets[set]
	victim := 0
	found := false
	for i := range ways {
		c := &ways[i]
		if c.valid && c.op == k.Op && c.imm == k.Imm && (!pcTag || c.pc == k.PC) &&
			c.in1 == in1 && c.in2 == in2 && c.reverse == reverse {
			victim, found = i, true
			break
		}
		if !c.valid {
			if !found {
				victim, found = i, true
			}
			continue
		}
		if !found && c.lru < ways[victim].lru {
			victim = i
		}
	}
	e := &ways[victim]
	if e.valid && !found {
		t.Replaced++
	}
	*e = Entry{
		stamp: t.stamp, pc: k.PC, imm: k.Imm, lru: t.tick,
		in1: in1, in2: in2, op: k.Op, valid: true, reverse: reverse,
	}
	return e
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
