package core

import (
	"reflect"
	"testing"
	"unsafe"

	"rix/internal/isa"
	"rix/internal/regfile"
)

func TestTableMatchRequiresTagAndInputs(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 64, Assoc: 4, Mode: IndexPC})
	k := Key{PC: 0x1000, Op: isa.ADDQI, Imm: 1}
	insert(tb, k, Entry{in1: 5, in1Gen: 2, in2: regfile.NoReg, out: 9, outGen: 1, createdSeq: 10})

	if e := match(tb, k, 5, 2, regfile.NoReg, 0); e == nil {
		t.Fatal("exact match failed")
	}
	if e := match(tb, k, 6, 2, regfile.NoReg, 0); e != nil {
		t.Error("matched wrong input register")
	}
	if e := match(tb, k, 5, 3, regfile.NoReg, 0); e != nil {
		t.Error("matched stale generation")
	}
	if e := match(tb, Key{PC: 0x2000, Op: isa.ADDQI, Imm: 1}, 5, 2, regfile.NoReg, 0); e != nil {
		t.Error("PC mode matched different PC")
	}
	if e := match(tb, Key{PC: 0x1000, Op: isa.ADDQI, Imm: 2}, 5, 2, regfile.NoReg, 0); e != nil {
		t.Error("matched different immediate")
	}
}

func TestTableOpcodeModeIgnoresPC(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 64, Assoc: 4, Mode: IndexOpcode, UseCallDepth: true})
	k := Key{PC: 0x1000, Op: isa.LDQ, Imm: 8, Depth: 3}
	insert(tb, k, Entry{in1: 5, in1Gen: 0, in2: regfile.NoReg, out: 9})

	// Different static instruction (different PC), same op/imm/depth: must
	// match — that is the point of extension 2.
	k2 := Key{PC: 0x5000, Op: isa.LDQ, Imm: 8, Depth: 3}
	if e := match(tb, k2, 5, 0, regfile.NoReg, 0); e == nil {
		t.Error("opcode mode failed to match across PCs")
	}
	// Different call depth indexes a different set — with call-depth
	// mixing, the lookup misses (entry distribution property).
	k3 := Key{PC: 0x5000, Op: isa.LDQ, Imm: 8, Depth: 4}
	if e := match(tb, k3, 5, 0, regfile.NoReg, 0); e != nil {
		t.Error("different call depth unexpectedly matched (index should differ)")
	}
}

func TestTableOpcodeIndexConflicts(t *testing.T) {
	// Without call-depth mixing, identical op/imm pairs from many
	// instructions pile into one set — the conflict phenomenon of §2.3.
	noDepth := NewTable(TableConfig{Entries: 64, Assoc: 2, Mode: IndexOpcode, UseCallDepth: false})
	withDepth := NewTable(TableConfig{Entries: 64, Assoc: 2, Mode: IndexOpcode, UseCallDepth: true})
	for d := 0; d < 8; d++ {
		k := Key{Op: isa.LDQ, Imm: 0, Depth: d}
		insert(noDepth, k, Entry{in1: regfile.PReg(d + 1), out: regfile.PReg(d + 100)})
		insert(withDepth, k, Entry{in1: regfile.PReg(d + 1), out: regfile.PReg(d + 100)})
	}
	// Without depth: all 8 inserts land in one 2-way set; at most 2
	// survive.
	if got := noDepth.Occupancy(); got > 2 {
		t.Errorf("no-depth occupancy = %d, want <= 2", got)
	}
	// With depth: inserts spread across sets.
	if got := withDepth.Occupancy(); got < 6 {
		t.Errorf("with-depth occupancy = %d, want >= 6", got)
	}
}

func TestTableLRUReplacement(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 2, Assoc: 2, Mode: IndexPC})
	// One set of two ways; all PCs map to it.
	kA := Key{PC: 0x1000, Op: isa.ADDQ}
	kB := Key{PC: 0x1004, Op: isa.ADDQ}
	kC := Key{PC: 0x1008, Op: isa.ADDQ}
	insert(tb, kA, Entry{in1: 1, in2: 2, out: 10})
	insert(tb, kB, Entry{in1: 1, in2: 2, out: 11})
	// Touch A to make B the LRU.
	if match(tb, kA, 1, 0, 2, 0) == nil {
		t.Fatal("A missing")
	}
	insert(tb, kC, Entry{in1: 1, in2: 2, out: 12})
	if match(tb, kA, 1, 0, 2, 0) == nil {
		t.Error("MRU entry A evicted")
	}
	if match(tb, kB, 1, 0, 2, 0) != nil {
		t.Error("LRU entry B survived")
	}
}

func TestTableRefreshSameTuple(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 4, Assoc: 4, Mode: IndexPC})
	k := Key{PC: 0x1000, Op: isa.ADDQI, Imm: 1}
	insert(tb, k, Entry{in1: 5, in2: regfile.NoReg, out: 9})
	insert(tb, k, Entry{in1: 5, in2: regfile.NoReg, out: 10}) // refresh, not second copy
	if got := tb.Occupancy(); got != 1 {
		t.Errorf("occupancy = %d, want 1 (refresh)", got)
	}
	e := match(tb, k, 5, 0, regfile.NoReg, 0)
	if e == nil || e.out != 10 {
		t.Errorf("refresh did not update out: %+v", e)
	}
}

func TestTableInvalidateStampGuard(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 4, Assoc: 4, Mode: IndexPC})
	k := Key{PC: 0x1000, Op: isa.ADDQI, Imm: 1}
	e := insert(tb, k, Entry{in1: 5, in2: regfile.NoReg, out: 9})
	stale := e.Stamp()
	// Overwrite the slot with a different tuple.
	insert(tb, k, Entry{in1: 6, in2: regfile.NoReg, out: 11})
	tb.Invalidate(e, stale) // must be a no-op: stamp changed
	if match(tb, k, 6, 0, regfile.NoReg, 0) == nil {
		t.Error("stale invalidation clobbered a newer entry")
	}
	e2 := insert(tb, k, Entry{in1: 7, in2: regfile.NoReg, out: 12})
	tb.Invalidate(e2, e2.Stamp())
	if match(tb, k, 7, 0, regfile.NoReg, 0) != nil {
		t.Error("invalidation failed")
	}
}

func TestBranchEntries(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 16, Assoc: 4, Mode: IndexPC})
	k := Key{PC: 0x1000, Op: isa.BNE}
	insert(tb, k, Entry{in1: 5, in1Gen: 1, in2: regfile.NoReg, out: regfile.NoReg, isBranch: true, taken: true})
	e := match(tb, k, 5, 1, regfile.NoReg, 0)
	if e == nil || !e.isBranch || !e.Taken() {
		t.Errorf("branch entry: %+v", e)
	}
}

func TestFullyAssociative(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 8, Assoc: 0, Mode: IndexOpcode}) // 0 => fully assoc
	for i := 0; i < 8; i++ {
		insert(tb, Key{Op: isa.LDQ, Imm: int64(i * 8)}, Entry{in1: 3, in2: regfile.NoReg, out: regfile.PReg(i + 10)})
	}
	if tb.Occupancy() != 8 {
		t.Errorf("occupancy = %d, want 8", tb.Occupancy())
	}
	for i := 0; i < 8; i++ {
		if match(tb, Key{Op: isa.LDQ, Imm: int64(i * 8)}, 3, 0, regfile.NoReg, 0) == nil {
			t.Errorf("entry %d missing in fully associative table", i)
		}
	}
}

func TestLISP(t *testing.T) {
	l := NewLISP(LISPConfig{Entries: 64, Assoc: 2})
	if l.Suppress(0x1000) {
		t.Error("cold LISP suppressed")
	}
	l.Train(0x1000)
	if !l.Suppress(0x1000) {
		t.Error("trained LISP did not suppress")
	}
	// Overbias: repeated suppression hits keep the entry alive.
	for i := 0; i < 100; i++ {
		if !l.Suppress(0x1000) {
			t.Fatal("entry aged out despite hits")
		}
	}
	// Re-training an existing PC must not duplicate.
	l.Train(0x1000)
	if l.TrainInsert != 2 {
		t.Errorf("TrainInsert = %d", l.TrainInsert)
	}
}

func TestLISPConflictEviction(t *testing.T) {
	l := NewLISP(LISPConfig{Entries: 4, Assoc: 2}) // 2 sets
	// Three PCs in the same set: the LRU one is evicted.
	a, b, c := uint64(0x1000), uint64(0x1000+8), uint64(0x1000+16)
	l.Train(a)
	l.Train(b)
	l.Suppress(a) // refresh a
	l.Train(c)    // evicts b
	if !l.Suppress(a) || !l.Suppress(c) {
		t.Error("expected entries missing")
	}
	if l.Suppress(b) {
		t.Error("LRU entry survived conflict")
	}
}

// TestTableResetMatchesNew: a used table reset to a configuration of
// its geometry, in either indexing mode, is indistinguishable from a
// new one; another geometry is refused.
func TestTableResetMatchesNew(t *testing.T) {
	tb := NewTable(TableConfig{Entries: 16, Assoc: 4})
	for i := 0; i < 20; i++ {
		insert(tb, Key{PC: uint64(i * 4), Op: isa.ADDQ}, Entry{in1: 3, in2: regfile.NoReg, out: regfile.PReg(i)})
		match(tb, Key{PC: uint64(i * 2), Op: isa.ADDQ}, 3, 0, regfile.NoReg, 0)
	}
	for _, cfg := range []TableConfig{
		{Entries: 16, Assoc: 4},
		{Entries: 16, Assoc: 4, Mode: IndexOpcode, UseCallDepth: true},
	} {
		if !tb.Reset(cfg) {
			t.Fatalf("Reset(%+v) refused a table of its geometry", cfg)
		}
		if !reflect.DeepEqual(tb, NewTable(cfg)) {
			t.Errorf("Reset(%+v) differs from NewTable", cfg)
		}
		insert(tb, Key{PC: 8, Op: isa.ADDQ}, Entry{in1: 3, in2: regfile.NoReg, out: 5})
	}
	for _, cfg := range []TableConfig{{Entries: 16, Assoc: 2}, {Entries: 32, Assoc: 4}, {Entries: 16}} {
		if tb.Reset(cfg) {
			t.Errorf("Reset(%+v) accepted another geometry", cfg)
		}
	}
}

// insert writes an entry with e's fields under key k, the way the
// integrator fills the entry Insert returns: only a branch entry writes
// the branch fields.
func insert(t *Table, k Key, e Entry) *Entry {
	v := t.Insert(k, t.Index(k), e.in1, e.in2, e.reverse)
	v.in1Gen, v.in2Gen, v.out, v.outGen, v.createdSeq = e.in1Gen, e.in2Gen, e.out, e.outGen, e.createdSeq
	if e.isBranch {
		v.isBranch, v.taken = true, e.taken
	}
	return v
}

// match looks k up in its own set.
func match(t *Table, k Key, in1 regfile.PReg, in1Gen uint8, in2 regfile.PReg, in2Gen uint8) *Entry {
	return t.Match(k, t.Index(k), in1, in1Gen, in2, in2Gen)
}

// TestEntrySize pins the entry layout: widest fields first, so a 4-way
// set spans 224 bytes, not 288.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 56 {
		t.Errorf("Entry is %d bytes, want 56", n)
	}
}
