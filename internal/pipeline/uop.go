// Package pipeline implements the execution-driven, cycle-level
// out-of-order core of the paper's §3.1 machine: a 4-way superscalar,
// 13-stage pipeline with 128 instructions / 64 memory operations in
// flight, 40 reservation stations, speculative load issue with a collision
// history table, pointer-based register renaming with register
// integration at the rename stage, and DIVA-style in-order re-execution
// before retirement.
//
// The simulator is self-checking: every retiring instruction is compared
// against the program's golden architectural trace. A mismatch on an
// integrated instruction is a mis-integration (flush + LISP training, as
// in the paper); a mismatch anywhere else is a simulator bug and panics.
//
// The ROB, the LSQ and the fetch queue are each one program-order ring
// (ring.go), and every squash that redirects fetch — a mispredicted
// branch or indirect target, a memory-order violation, a DIVA fault —
// recovers through the one path, refetch (squash.go).
//
// Issue is wakeup/select rather than a per-cycle scan of the stations.
// Bitmasks over RS slots record which slots are occupied, which are
// ready, and, per physical register, which slots wait on it. Allocation
// registers each distinct unready source in its register's wait mask;
// publishing a value (setReady, the only path by which a register
// becomes ready) clears that mask and moves every slot whose last source
// arrived into the ready mask; issueStage selects from the ready mask
// alone, in the same (priority, age) order as before. This is exact
// because a register a waiting consumer names cannot become unready
// again: the consumer's source mapping holds the register's reference
// count until a younger overwriter retires, so Alloc cannot reclaim it
// while the consumer sits in a station.
package pipeline

import (
	"rix/internal/bpred"
	"rix/internal/core"
	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// uop is one in-flight dynamic instruction.
type uop struct {
	seq      uint64 // rename sequence number (0 = not renamed)
	pc       uint64
	in       isa.Instr
	traceIdx int64 // index in the golden trace; -1 on the wrong path

	// Fetch state.
	fetchCycle  uint64
	renameReady uint64 // earliest cycle rename may process it (front-end depth)
	callDepth   int
	histSnap    bpred.Snap
	rasSnap     bpred.RASSnap
	predTaken   bool
	predTarget  uint64 // predicted target for indirect control; 0 = none

	// Rename state.
	src1, src2 rename.Mapping // rename-time source mappings
	oldDest    rename.Mapping // mapping displaced by this instruction
	destPreg   regfile.PReg
	destGen    uint8
	hasDest    bool
	undoValid  bool

	// Integration state.
	integrated bool
	intRes     core.Result
	intStatus  core.ResultStatus

	// Scheduling state.
	needsRS  bool
	rsIdx    int // -1 when not occupying a reservation station
	prio     int // priorityOf, computed once at RS allocation
	issued   bool
	execDone bool

	// Memory state.
	isLoad, isStore bool
	lsqPos          int // LSQ storage index (ring.push); -1 otherwise
	addr            uint64
	addrValid       bool
	storeData       uint64
	fwdFromSeq      uint64 // store this load forwarded from; 0 = memory
	specPastStores  bool   // issued while an older store address was unknown

	// Control state.
	resolvedTaken  bool
	resolvedTarget uint64
	resolvedAt     uint64

	squashed bool
}

// completed reports whether the uop may retire.
func (u *uop) completed(rf *regfile.File) bool {
	switch {
	case u.integrated && u.intRes.IsBranch:
		return true
	case u.integrated:
		return rf.Ready(u.destPreg)
	case u.needsRS:
		return u.execDone
	default:
		return true // nop, br, bsr, syscall: complete at rename
	}
}

// isCondBranch reports a conditional branch.
func (u *uop) isCondBranch() bool { return u.in.Op.IsConditional() }

// intType classifies a retiring integrated instruction for the Figure 5
// Type breakdown.
type intType int

const (
	intSPLoad intType = iota
	intLoad
	intALU
	intBranch
	intFP
	numIntTypes
)

func (u *uop) integrationType() intType {
	switch {
	case u.in.IsSPLoad():
		return intSPLoad
	case u.in.Op.IsLoad():
		return intLoad
	case u.in.Op.IsConditional():
		return intBranch
	case u.in.Op.ClassOf() == isa.ClassFP:
		return intFP
	default:
		return intALU
	}
}
