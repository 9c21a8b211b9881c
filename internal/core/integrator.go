package core

import (
	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// Policy selects which parts of the integration mechanism are active.
// The paper's four experimental configurations are:
//
//	squash:   {Enable}                                   (PC index, squash-only regfile)
//	+general: {Enable, GeneralReuse}                     (PC index)
//	+opcode:  {Enable, GeneralReuse, OpcodeIndex}
//	+reverse: {Enable, GeneralReuse, OpcodeIndex, Reverse}
type Policy struct {
	Enable       bool
	GeneralReuse bool // extension 1: simultaneous sharing via refcounts
	OpcodeIndex  bool // extension 2: opcode/imm/call-depth indexing
	Reverse      bool // extension 3: speculative memory bypassing

	UseLISP bool // realistic mis-integration suppression
	Oracle  bool // oracle mis-integration suppression (upper bound)

	// Ablations beyond the paper's main configurations.
	ReverseAllStores bool // reverse entries for every store, not just SP-based
	ReverseALU       bool // reverse entries for invertible ALU immediates
	NoCallDepth      bool // opcode indexing without the call-depth mix
}

// ResultStatus is the state of the integrated result at integration time
// (Figure 5 "Status" breakdown).
type ResultStatus uint8

const (
	StatusRename       ResultStatus = iota // allocated, producer not issued
	StatusIssue                            // producer issued, not yet retired
	StatusRetire                           // producer completed and retired
	StatusShadowSquash                     // completed but unmapped (squashed or shadowed)
	NumStatuses
)

// String names the status.
func (s ResultStatus) String() string {
	switch s {
	case StatusRename:
		return "rename"
	case StatusIssue:
		return "issue"
	case StatusRetire:
		return "retire"
	case StatusShadowSquash:
		return "shadow/squash"
	}
	return "?"
}

// Result describes a successful integration.
type Result struct {
	Entry      *Entry
	EntryStamp uint64
	Out        regfile.PReg
	OutGen     uint8
	Reverse    bool
	Distance   uint64 // rename-stream distance from entry creation
	RefAfter   uint16 // reference count after the integration increment
	IsBranch   bool
	Taken      bool // branch entries: recorded outcome
}

// ProducerProbe lets the integrator classify the result status and run the
// oracle check; the pipeline supplies it.
type ProducerProbe interface {
	// Status reports the Figure-5 state of physical register p at
	// integration time, given its pre-integration reference count.
	Status(p regfile.PReg, refBefore uint16) ResultStatus
	// OracleValueKnown reports whether the architecturally correct value
	// of the candidate instruction is known, and that value.
	OracleValue() (uint64, bool)
	// PregValueKnown reports the eventual value of p if determinable now.
	PregValue(p regfile.PReg) (uint64, bool)
}

// Integrator bundles the IT, LISP and policy into the rename-stage
// decision logic.
type Integrator struct {
	Policy Policy
	Table  *Table
	LISP   *LISP
	RF     *regfile.File

	// Stats.
	Attempts         uint64
	Hits             uint64
	IneligibleOut    uint64
	SaturationFails  uint64
	LISPSuppressions uint64
	OracleRejects    uint64
}

// New builds an integrator around a suppression predictor: a cold
// NewLISP, or a window's chained feedback. The regfile must have been
// configured with the matching mode (general vs squash-only). it, when
// not nil, is a finished integrator's table to recycle: reset in place
// when it has tcfg's geometry, else replaced by a new one. Either way
// the integrator starts with an empty table.
func New(p Policy, tcfg TableConfig, lisp *LISP, rf *regfile.File, it *Table) *Integrator {
	if p.OpcodeIndex {
		tcfg.Mode = IndexOpcode
		tcfg.UseCallDepth = !p.NoCallDepth
	} else {
		tcfg.Mode = IndexPC
		tcfg.UseCallDepth = false
	}
	if it == nil || !it.Reset(tcfg) {
		it = NewTable(tcfg)
	}
	return &Integrator{
		Policy: p,
		Table:  it,
		LISP:   lisp,
		RF:     rf,
	}
}

// Locate returns the IT key of an instruction instance and its set
// index: rename computes both once and hands them to TryIntegrate and
// NoteRenamed.
func (g *Integrator) Locate(in isa.Instr, pc uint64, depth int) (Key, int) {
	k := Key{PC: pc, Op: in.Op, Imm: in.Imm, Depth: depth}
	return k, g.Table.Index(k)
}

// inputs extracts the IT input operands from the current map.
func inputs(in isa.Instr, m *rename.MapTable) (regfile.PReg, uint8, regfile.PReg, uint8) {
	in1, in2 := regfile.NoReg, regfile.NoReg
	var g1, g2 uint8
	if in.Op.ReadsRa() {
		mp := m.Get(in.Ra)
		in1, g1 = mp.P, mp.Gen
	}
	if in.Op.ReadsRb() {
		mp := m.Get(in.Rb)
		in2, g2 = mp.P, mp.Gen
	}
	return in1, g1, in2, g2
}

// TryIntegrate attempts to integrate the instruction at rename; k and
// set are its key and set index (Locate). seq is the rename sequence
// number (for the distance statistic). On success it performs the
// reference-count increment and returns the result; the caller updates
// the map table. probe may be nil (no oracle, status reported as
// shadow/squash for zero-reference results only).
//
//rix:hotpath
func (g *Integrator) TryIntegrate(in isa.Instr, k Key, set int, seq uint64, m *rename.MapTable, probe ProducerProbe) (Result, ResultStatus, bool) {
	if !g.Policy.Enable || !in.Op.Integrable() {
		return Result{}, 0, false
	}
	isBranch := in.Op.IsConditional()
	if !isBranch && (!in.Op.HasDest() || in.Rd == isa.RegZero) {
		return Result{}, 0, false
	}
	g.Attempts++

	if in.Op.IsLoad() && g.Policy.UseLISP && g.LISP.Suppress(k.PC) {
		g.LISPSuppressions++
		return Result{}, 0, false
	}

	in1, g1, in2, g2 := inputs(in, m)
	e := g.Table.Match(k, set, in1, g1, in2, g2)
	if e == nil {
		return Result{}, 0, false
	}

	if isBranch {
		// Branch integration: outcome reuse, no register transfer.
		if !e.isBranch {
			return Result{}, 0, false
		}
		g.Hits++
		return Result{
			Entry: e, EntryStamp: e.stamp, Out: regfile.NoReg,
			Distance: seq - e.createdSeq, IsBranch: true, Taken: e.taken,
		}, StatusRetire, true
	}
	if e.isBranch {
		return Result{}, 0, false
	}

	if !g.RF.Eligible(e.out, e.outGen) {
		g.IneligibleOut++
		return Result{}, 0, false
	}

	// Oracle suppression: integrate only when the entry's value provably
	// equals the architecturally correct value of this instruction.
	if g.Policy.Oracle && in.Op.IsLoad() && probe != nil {
		if want, ok := probe.OracleValue(); ok {
			if got, known := probe.PregValue(e.out); known && got != want {
				g.OracleRejects++
				return Result{}, 0, false
			}
		}
	}

	refBefore := g.RF.RefCount(e.out)
	if !g.RF.Integrate(e.out) {
		g.SaturationFails++
		return Result{}, 0, false
	}
	g.Hits++

	status := StatusShadowSquash
	if probe != nil {
		status = probe.Status(e.out, refBefore)
	} else if refBefore > 0 {
		status = StatusRetire
	}
	return Result{
		Entry: e, EntryStamp: e.stamp, Out: e.out, OutGen: e.outGen,
		Reverse: e.reverse, Distance: seq - e.createdSeq,
		RefAfter: g.RF.RefCount(e.out),
	}, status, true
}

// NoteRenamed creates IT entries after an instruction renamed; k and set
// are its key and set index (Locate). seq is the rename sequence number.
// out/oldOut are the post-rename destination mapping and the mapping it
// displaced (needed for SP-decrement reverse entries). integrated
// suppresses direct-entry creation (entries are created only when
// integration fails, paper §2.1).
//
//rix:hotpath
func (g *Integrator) NoteRenamed(in isa.Instr, k Key, set int, seq uint64,
	in1 rename.Mapping, in2 rename.Mapping, out rename.Mapping, oldOut rename.Mapping, integrated bool) {

	if !g.Policy.Enable {
		return
	}

	// Direct entries: integrable, register-writing operations. Branches
	// insert at resolution (outcome not known here); stores never insert
	// direct entries.
	if !integrated && in.Op.Integrable() && in.Op.HasDest() && in.Rd != isa.RegZero && !in.Op.IsConditional() {
		e := g.Table.Insert(k, set, pregOf(in.Op.ReadsRa(), in1), pregOf(in.Op.ReadsRb(), in2), false)
		e.in1Gen, e.in2Gen = in1.Gen, in2.Gen
		e.out, e.outGen = out.P, out.Gen
		e.createdSeq = seq
	}

	// Reverse entries (extension 3) require opcode indexing: the consumer
	// of the entry has a different PC than its creator.
	if !g.Policy.Reverse || !g.Policy.OpcodeIndex {
		return
	}

	switch {
	case in.Op.IsStore() && (in.Ra == isa.RegSP || g.Policy.ReverseAllStores):
		// stq rb, disp(ra)  creates  <ldq/disp, ra, -, rb>: a future load
		// from the same address reuses the store's data register.
		loadOp, _ := in.Op.StoreLoadPair()
		g.insertReverse(Key{PC: k.PC, Op: loadOp, Imm: in.Imm, Depth: k.Depth}, seq,
			in1, in2) // base register, data register

	case in.IsSPDecrement():
		// lda sp, -n(sp) creates <lda/+n, newSP, -, oldSP>: the matching
		// increment reuses the pre-call stack-pointer register.
		invOp, invImm, _ := in.Op.Inverse(in.Imm)
		g.insertReverse(Key{PC: k.PC, Op: invOp, Imm: invImm, Depth: k.Depth}, seq, out, oldOut)

	case g.Policy.ReverseALU && in.Op.HasDest() && in.Rd != isa.RegZero && in.Rd != in.Ra:
		// Ablation: general invertible ALU immediates.
		if invOp, invImm, ok := in.Op.Inverse(in.Imm); ok && in.Op != isa.LDA {
			g.insertReverse(Key{PC: k.PC, Op: invOp, Imm: invImm, Depth: k.Depth}, seq, out, in1)
		}
	}
}

// insertReverse inserts the reverse entry <k, from, -, to>: a later
// instruction with key k whose input is from gets to's register.
func (g *Integrator) insertReverse(k Key, seq uint64, from, to rename.Mapping) {
	e := g.Table.Insert(k, g.Table.Index(k), from.P, regfile.NoReg, true)
	e.in1Gen = from.Gen
	e.out, e.outGen = to.P, to.Gen
	e.createdSeq = seq
}

func pregOf(reads bool, m rename.Mapping) regfile.PReg {
	if !reads {
		return regfile.NoReg
	}
	return m.P
}

// NoteBranchResolved inserts a conditional-branch outcome entry at
// resolution time, keyed by the branch's rename-time input mapping.
func (g *Integrator) NoteBranchResolved(in isa.Instr, pc uint64, depth int, seq uint64,
	in1 rename.Mapping, taken bool) {
	if !g.Policy.Enable || !in.Op.IsConditional() {
		return
	}
	k, set := g.Locate(in, pc, depth)
	e := g.Table.Insert(k, set, in1.P, regfile.NoReg, false)
	e.in1Gen = in1.Gen
	e.out = regfile.NoReg
	e.isBranch, e.taken = true, taken
	e.createdSeq = seq
}

// OnMisIntegration handles DIVA feedback: train the LISP for loads and
// invalidate the offending entry.
func (g *Integrator) OnMisIntegration(in isa.Instr, pc uint64, e *Entry, stamp uint64) {
	if in.Op.IsLoad() {
		g.LISP.Train(pc)
	}
	g.Table.Invalidate(e, stamp)
}
