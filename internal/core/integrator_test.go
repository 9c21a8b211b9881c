package core

import (
	"testing"

	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// renamer is a miniature rename stage driving the Integrator the way the
// pipeline does, for unit-level walkthroughs of the paper's figures.
type renamer struct {
	t   *testing.T
	g   *Integrator
	rf  *regfile.File
	m   *rename.MapTable
	seq uint64
}

func newRenamer(t *testing.T, p Policy) *renamer {
	rf := regfile.New(regfile.Config{
		NumRegs: 64, GenBits: 4, RefBits: 4, GeneralMode: p.GeneralReuse,
	})
	return &renamer{
		t:  t,
		g:  New(p, TableConfig{Entries: 64, Assoc: 4}, NewLISP(LISPConfig{}), rf, nil),
		rf: rf,
		m:  rename.NewMapTable(),
	}
}

// rename processes one instruction, returning the uop-equivalent record.
type renamed struct {
	in         isa.Instr
	res        Result
	integrated bool
	dest       rename.Mapping
	oldDest    rename.Mapping
	undo       rename.Undo
}

func (r *renamer) rename(in isa.Instr, pc uint64, depth int) renamed {
	r.seq++
	in1, in2 := r.m.Get(in.Ra), r.m.Get(in.Rb)
	k, set := r.g.Locate(in, pc, depth)
	res, _, ok := r.g.TryIntegrate(in, k, set, r.seq, r.m, nil)
	out := renamed{in: in, res: res, integrated: ok}
	switch {
	case ok && !res.IsBranch:
		out.oldDest = r.m.Set(in.Rd, rename.Mapping{P: res.Out, Gen: res.OutGen})
		out.dest = rename.Mapping{P: res.Out, Gen: res.OutGen}
		out.undo = rename.Undo{L: in.Rd, Old: out.oldDest}
	case in.Op.HasDest() && in.Rd != isa.RegZero:
		p, allocOK := r.rf.Alloc()
		if !allocOK {
			r.t.Fatal("out of physical registers")
		}
		out.dest = rename.Mapping{P: p, Gen: r.rf.Gen(p)}
		out.oldDest = r.m.Set(in.Rd, out.dest)
		out.undo = rename.Undo{L: in.Rd, Old: out.oldDest}
	}
	r.g.NoteRenamed(in, k, set, r.seq, in1, in2, out.dest, out.oldDest, out.integrated)
	return out
}

// execute marks the renamed instruction's output computed.
func (r *renamer) execute(u renamed, v uint64) {
	if u.dest.P != regfile.NoReg && u.dest.P != 0 && !u.integrated {
		r.rf.SetReady(u.dest.P, v)
	}
}

// commit retires the instruction: shadow-release of the displaced arch
// mapping (the test keeps rename-time old mapping as the arch shadow,
// valid because these walkthroughs retire in order without intervening
// redefinitions).
func (r *renamer) commit(u renamed) {
	if u.undo.L != 0 || u.dest.P != regfile.NoReg {
		if u.oldDest.P != regfile.ZeroReg && u.oldDest.P != regfile.NoReg {
			r.rf.Release(u.oldDest.P, regfile.CauseShadow)
		}
	}
}

// squash undoes the rename.
func (r *renamer) squash(u renamed) {
	if u.dest.P == regfile.NoReg {
		return
	}
	r.m.Set(u.undo.L, u.undo.Old)
	r.rf.Release(u.dest.P, regfile.CauseSquash)
}

// seedReg gives logical register l a fresh, ready physical mapping.
func (r *renamer) seedReg(l isa.Reg, v uint64) {
	p, _ := r.rf.Alloc()
	r.rf.SetReady(p, v)
	r.m.Set(l, rename.Mapping{P: p, Gen: r.rf.Gen(p)})
}

var generalPolicy = Policy{Enable: true, GeneralReuse: true}

const regT1 = isa.Reg(2)

// TestFigure2Walkthrough reproduces the general-reuse reference-counting
// scenario of the paper's Figure 2: instructions x10/x14 retire, newer
// instances integrate their results — one a shadowed register (0/T -> 1),
// one a still-mapped retired register (1 -> 2, simultaneous sharing) —
// then a squash partially dissolves the sharing.
func TestFigure2Walkthrough(t *testing.T) {
	r := newRenamer(t, generalPolicy)
	r.seedReg(1, 100) // R1 (the example's R1-R3 are r1-r3 here)

	x10 := isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1} // addqi R2, R1, 1
	x14 := isa.Instr{Op: isa.ADDQI, Rd: 3, Ra: 2, Imm: 1} // addqi R3, R2, 1
	x18 := isa.Instr{Op: isa.SUBQI, Rd: 2, Ra: 3, Imm: 1} // subqi R2, R3, 1

	// #1, #2, #3: first instances rename normally and retire.
	u1 := r.rename(x10, 0x10, 0)
	u2 := r.rename(x14, 0x14, 0)
	if u1.integrated || u2.integrated {
		t.Fatal("first instances must not integrate")
	}
	p4, p5 := u1.dest.P, u2.dest.P
	r.execute(u1, 101)
	r.execute(u2, 102)
	r.commit(u1)
	u3 := r.rename(x18, 0x18, 0) // shadows R2 (p4)
	r.execute(u3, 101)
	r.commit(u2)
	r.commit(u3) // R2's old mapping p4 shadow-released -> 0/T

	if r.rf.RefCount(p4) != 0 || !r.rf.Valid(p4) {
		t.Fatalf("p4 must be 0/T, got ref=%d valid=%v", r.rf.RefCount(p4), r.rf.Valid(p4))
	}
	if r.rf.RefCount(p5) != 1 {
		t.Fatalf("p5 must still be mapped by R3, ref=%d", r.rf.RefCount(p5))
	}

	// #4: new instance of x10 integrates p4 (0/T -> 1/T).
	u4 := r.rename(x10, 0x10, 0)
	if !u4.integrated || u4.dest.P != p4 {
		t.Fatalf("#4: integrated=%v dest=p%d want p%d", u4.integrated, u4.dest.P, p4)
	}
	if r.rf.RefCount(p4) != 1 {
		t.Errorf("p4 ref = %d, want 1", r.rf.RefCount(p4))
	}

	// #5: new instance of x14 integrates p5 while its retired mapping is
	// still live (1/T -> 2/T): simultaneous sharing.
	u5 := r.rename(x14, 0x14, 0)
	if !u5.integrated || u5.dest.P != p5 {
		t.Fatalf("#5: integrated=%v dest=p%d want p%d", u5.integrated, u5.dest.P, p5)
	}
	if r.rf.RefCount(p5) != 2 {
		t.Errorf("p5 ref = %d, want 2 (simultaneous sharing)", r.rf.RefCount(p5))
	}
	if u5.res.RefAfter != 2 {
		t.Errorf("RefAfter = %d, want 2", u5.res.RefAfter)
	}

	// Squash #5: sharing partially dissolves; p5 keeps the retired
	// mapping and stays integration-eligible.
	r.squash(u5)
	if r.rf.RefCount(p5) != 1 || !r.rf.Valid(p5) {
		t.Errorf("after squash: p5 ref=%d valid=%v", r.rf.RefCount(p5), r.rf.Valid(p5))
	}

	// A new instance can integrate p5 again.
	u5b := r.rename(x14, 0x14, 0)
	if !u5b.integrated || u5b.dest.P != p5 {
		t.Errorf("re-integration after squash failed")
	}
}

// TestDeadlockAvoidance verifies the 0/F state: a squashed, un-executed
// result must never be integrated (§2.2's deadlock scenario).
func TestDeadlockAvoidance(t *testing.T) {
	r := newRenamer(t, generalPolicy)
	r.seedReg(1, 100)
	x10 := isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1}
	u1 := r.rename(x10, 0x10, 0)
	// Squash before execution.
	r.squash(u1)
	u2 := r.rename(x10, 0x10, 0)
	if u2.integrated {
		t.Fatal("integrated a squashed, un-executed result (deadlock)")
	}
}

// TestSquashOnlyBaseline verifies the baseline discipline: only squashed
// results integrate; shadowed results do not.
func TestSquashOnlyBaseline(t *testing.T) {
	r := newRenamer(t, Policy{Enable: true, GeneralReuse: false})
	r.seedReg(1, 100)
	x10 := isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1}

	// Squash reuse works.
	u1 := r.rename(x10, 0x10, 0)
	r.execute(u1, 101)
	r.squash(u1)
	u2 := r.rename(x10, 0x10, 0)
	if !u2.integrated {
		t.Fatal("squash reuse failed in baseline mode")
	}
	r.execute(u2, 101)

	// Active results do not integrate (no simultaneous sharing).
	u3 := r.rename(x10, 0x10, 0)
	if u3.integrated {
		t.Fatal("baseline mode allowed simultaneous sharing")
	}
}

// TestFigure3Walkthrough reproduces the paper's Figure 3: speculative
// memory bypassing of a caller-save (t0) and callee-save (s0) pair via
// reverse integration, across a stack-pointer decrement/increment.
func TestFigure3Walkthrough(t *testing.T) {
	pol := Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true}
	r := newRenamer(t, pol)
	r.seedReg(isa.RegT0, 111)
	r.seedReg(isa.RegS0, 222)
	r.seedReg(isa.RegSP, 0x8000)
	t0Preg := r.m.Get(isa.RegT0).P
	s0Preg := r.m.Get(isa.RegS0).P
	spPreg := r.m.Get(isa.RegSP).P

	// Save sequence (depth 0 for the caller-save, depth 1 inside callee).
	// 1: stq t0, 8(sp)       — caller save, creates reverse ldq entry
	st1 := isa.Instr{Op: isa.STQ, Ra: isa.RegSP, Rb: isa.RegT0, Imm: 8}
	r.rename(st1, 0x100, 0)
	// 2: call function       — depth becomes 1 (modelled by depth arg)
	// 3: lda sp, -32(sp)     — creates reverse lda +32 entry
	dec := isa.Instr{Op: isa.LDA, Rd: isa.RegSP, Ra: isa.RegSP, Imm: -32}
	uDec := r.rename(dec, 0x200, 1)
	if uDec.integrated {
		t.Fatal("first decrement must not integrate")
	}
	r.execute(uDec, 0x8000-32)
	newSP := r.m.Get(isa.RegSP).P
	// 4: stq s0, 4(sp)       — callee save
	st4 := isa.Instr{Op: isa.STQ, Ra: isa.RegSP, Rb: isa.RegS0, Imm: 4}
	r.rename(st4, 0x204, 1)

	// Function body: t0 and s0 overwritten.
	body1 := r.rename(isa.Instr{Op: isa.ADDQI, Rd: isa.RegT0, Ra: isa.RegT0, Imm: 7}, 0x208, 1)
	r.execute(body1, 118)
	body2 := r.rename(isa.Instr{Op: isa.ADDQI, Rd: isa.RegS0, Ra: isa.RegS0, Imm: 9}, 0x20c, 1)
	r.execute(body2, 231)
	r.commit(body1)
	r.commit(body2)

	// 5: ldq s0, 4(sp)       — reverse integrates the callee save (s0Preg).
	ld5 := isa.Instr{Op: isa.LDQ, Rd: isa.RegS0, Ra: isa.RegSP, Imm: 4}
	u5 := r.rename(ld5, 0x210, 1)
	if !u5.integrated || !u5.res.Reverse || u5.dest.P != s0Preg {
		t.Fatalf("callee restore: integrated=%v reverse=%v dest=p%d want p%d",
			u5.integrated, u5.res.Reverse, u5.dest.P, s0Preg)
	}

	// 6: lda sp, 32(sp)      — reverse integrates the SP decrement,
	// restoring the pre-call mapping spPreg.
	inc := isa.Instr{Op: isa.LDA, Rd: isa.RegSP, Ra: isa.RegSP, Imm: 32}
	u6 := r.rename(inc, 0x214, 1)
	if !u6.integrated || u6.dest.P != spPreg {
		t.Fatalf("sp increment: integrated=%v dest=p%d want p%d", u6.integrated, u6.dest.P, spPreg)
	}
	_ = newSP

	// 8: ldq t0, 8(sp)       — with sp back on spPreg, the caller restore
	// reverse-integrates t0's original register.
	ld8 := isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: isa.RegSP, Imm: 8}
	u8 := r.rename(ld8, 0x104, 0)
	if !u8.integrated || !u8.res.Reverse || u8.dest.P != t0Preg {
		t.Fatalf("caller restore: integrated=%v reverse=%v dest=p%d want p%d",
			u8.integrated, u8.res.Reverse, u8.dest.P, t0Preg)
	}
}

// TestReverseRequiresOpcodeIndex verifies that reverse entries are not
// created under PC indexing (a load's PC never matches a store's).
func TestReverseRequiresOpcodeIndex(t *testing.T) {
	pol := Policy{Enable: true, GeneralReuse: true, Reverse: true} // no OpcodeIndex
	r := newRenamer(t, pol)
	r.seedReg(isa.RegT0, 111)
	r.seedReg(isa.RegSP, 0x8000)
	st := isa.Instr{Op: isa.STQ, Ra: isa.RegSP, Rb: isa.RegT0, Imm: 8}
	r.rename(st, 0x100, 0)
	ld := isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: isa.RegSP, Imm: 8}
	u := r.rename(ld, 0x104, 0)
	if u.integrated {
		t.Error("reverse integration occurred without opcode indexing")
	}
}

func TestNonSPStoreCreatesNoReverseEntry(t *testing.T) {
	pol := Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true}
	r := newRenamer(t, pol)
	r.seedReg(isa.RegT0, 111)
	r.seedReg(regT1, 0x9000) // non-SP base
	st := isa.Instr{Op: isa.STQ, Ra: regT1, Rb: isa.RegT0, Imm: 8}
	r.rename(st, 0x100, 0)
	ld := isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: regT1, Imm: 8}
	u := r.rename(ld, 0x104, 0)
	if u.integrated {
		t.Error("non-SP store bypassed without ReverseAllStores")
	}
}

func TestReverseAllStoresAblation(t *testing.T) {
	pol := Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, ReverseAllStores: true}
	r := newRenamer(t, pol)
	r.seedReg(isa.RegT0, 111)
	r.seedReg(regT1, 0x9000)
	st := isa.Instr{Op: isa.STQ, Ra: regT1, Rb: isa.RegT0, Imm: 8}
	r.rename(st, 0x100, 0)
	ld := isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: regT1, Imm: 8}
	u := r.rename(ld, 0x104, 0)
	if !u.integrated || !u.res.Reverse {
		t.Error("ReverseAllStores failed to bypass a non-SP store-load pair")
	}
}

func TestBranchIntegration(t *testing.T) {
	r := newRenamer(t, generalPolicy)
	r.seedReg(1, 5)
	br := isa.Instr{Op: isa.BNE, Ra: 1, Imm: 0x20}
	in1 := r.m.Get(1)
	// First instance resolves taken; entry inserted at resolution.
	r.seq++
	r.g.NoteBranchResolved(br, 0x100, 0, r.seq, in1, true)
	// Second instance with the same input mapping integrates the outcome.
	u := r.rename(br, 0x100, 0)
	if !u.integrated || !u.res.IsBranch || !u.res.Taken {
		t.Fatalf("branch integration: %+v", u.res)
	}
	// After the register is renamed (new producer), the entry must not
	// match.
	w := r.rename(isa.Instr{Op: isa.ADDQI, Rd: 1, Ra: 1, Imm: 1}, 0x104, 0)
	r.execute(w, 6)
	u2 := r.rename(br, 0x100, 0)
	if u2.integrated {
		t.Error("branch integrated across an input redefinition")
	}
}

func TestLISPSuppressesLoadIntegration(t *testing.T) {
	pol := Policy{Enable: true, GeneralReuse: true, UseLISP: true}
	r := newRenamer(t, pol)
	r.seedReg(regT1, 0x9000)
	ld := isa.Instr{Op: isa.LDQ, Rd: isa.RegT0, Ra: regT1, Imm: 0}
	u1 := r.rename(ld, 0x100, 0)
	r.execute(u1, 42)
	r.commit(u1)
	// Train the LISP as if u1's sibling mis-integrated.
	r.g.OnMisIntegration(ld, 0x100, nil, 0)
	u2 := r.rename(ld, 0x100, 0)
	if u2.integrated {
		t.Error("LISP hit did not suppress load integration")
	}
	if r.g.LISPSuppressions != 1 {
		t.Errorf("LISPSuppressions = %d", r.g.LISPSuppressions)
	}
}

func TestNonIntegrableOpsRejected(t *testing.T) {
	r := newRenamer(t, generalPolicy)
	r.seedReg(1, 5)
	for _, in := range []isa.Instr{
		{Op: isa.STQ, Ra: isa.RegSP, Rb: 1, Imm: 0},
		{Op: isa.BR, Imm: 0x10},
		{Op: isa.SYSCALL},
		{Op: isa.ADDQI, Rd: isa.RegZero, Ra: 1, Imm: 1}, // zero-dest
	} {
		k, set := r.g.Locate(in, 0x100, 0)
		if _, _, ok := r.g.TryIntegrate(in, k, set, 1, r.m, nil); ok {
			t.Errorf("%v integrated", in.Op)
		}
	}
}

func TestDisabledPolicyNoEntries(t *testing.T) {
	r := newRenamer(t, Policy{})
	r.seedReg(1, 5)
	u := r.rename(isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1}, 0x10, 0)
	r.execute(u, 6)
	r.commit(u)
	if r.g.Table.Occupancy() != 0 {
		t.Error("disabled integrator created IT entries")
	}
	u2 := r.rename(isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1}, 0x10, 0)
	if u2.integrated {
		t.Error("disabled integrator integrated")
	}
}

func TestDistanceTracking(t *testing.T) {
	r := newRenamer(t, generalPolicy)
	r.seedReg(1, 5)
	x := isa.Instr{Op: isa.ADDQI, Rd: 2, Ra: 1, Imm: 1}
	u1 := r.rename(x, 0x10, 0) // seq 1, entry created
	r.execute(u1, 6)
	// Burn rename sequence numbers.
	for i := 0; i < 9; i++ {
		w := r.rename(isa.Instr{Op: isa.ADDQI, Rd: 3, Ra: 3, Imm: 1}, uint64(0x100+i*4), 0)
		r.execute(w, uint64(i))
	}
	u2 := r.rename(x, 0x10, 0) // seq 11
	if !u2.integrated {
		t.Fatal("no integration")
	}
	if u2.res.Distance != 10 {
		t.Errorf("distance = %d, want 10", u2.res.Distance)
	}
}
