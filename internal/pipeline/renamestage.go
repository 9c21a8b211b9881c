package pipeline

import (
	"rix/internal/core"
	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// probe implements core.ProducerProbe for the uop currently being renamed.
type probe struct{ pl *Pipeline }

// Status classifies the integrated result's producer state (Figure 5).
func (p probe) Status(preg regfile.PReg, refBefore uint16) core.ResultStatus {
	if refBefore == 0 {
		return core.StatusShadowSquash
	}
	prod := p.pl.prod[preg]
	switch {
	case prod == nil:
		return core.StatusRetire
	case prod.issued:
		return core.StatusIssue
	default:
		return core.StatusRename
	}
}

// OracleValue returns the architecturally correct result of the rename
// candidate when it is on the correct path.
func (p probe) OracleValue() (uint64, bool) {
	u := p.pl.probeU
	if u == nil || u.traceIdx < 0 {
		return 0, false
	}
	return p.pl.win.at(int(u.traceIdx)).Value, true
}

// PregValue reports the eventual value of preg when determinable: either
// already computed, or its producer is a correct-path in-flight
// instruction whose golden value is known.
func (p probe) PregValue(preg regfile.PReg) (uint64, bool) {
	if p.pl.rf.Ready(preg) {
		return p.pl.rf.Value(preg), true
	}
	if prod := p.pl.prod[preg]; prod != nil && prod.traceIdx >= 0 {
		return p.pl.win.at(int(prod.traceIdx)).Value, true
	}
	return 0, false
}

// needsExecution reports whether the (non-integrated) uop must occupy a
// reservation station.
func needsExecution(in isa.Instr) bool {
	switch in.Op.ClassOf() {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassFP, isa.ClassLoad, isa.ClassStore, isa.ClassBranch:
		return true
	case isa.ClassCallIndirect, isa.ClassJumpIndirect, isa.ClassRet:
		return true // must verify the register target
	}
	return false // nop, br, bsr, syscall
}

// renameStage renames and dispatches up to RenameWidth instructions,
// running the integration logic on each (the paper's critical loop).
//
//rix:hotpath
func (pl *Pipeline) renameStage() {
	for n := 0; n < pl.cfg.RenameWidth; n++ {
		if pl.fq.len() == 0 {
			return
		}
		u := pl.fq.at(0)
		if u.renameReady > pl.now {
			return
		}
		// Conservative resource pre-check (rename stalls on any shortage).
		if pl.rob.full() {
			pl.Stats.RenameStallsResources++
			return
		}
		isMem := u.in.Op.IsMem()
		if isMem && pl.lsq.full() {
			pl.Stats.RenameStallsResources++
			return
		}
		if needsExecution(u.in) && pl.rsUsed >= pl.cfg.NumRS {
			pl.Stats.RenameStallsResources++
			return
		}
		if u.in.Op.HasDest() && u.in.Rd != isa.RegZero && pl.rf.NumFree() == 0 {
			pl.Stats.RenameStallsResources++
			return
		}

		pl.fq.popHead()
		pl.seqCounter++
		u.seq = pl.seqCounter
		pl.Stats.Renamed++

		// Read source mappings.
		if u.in.Op.ReadsRa() {
			u.src1 = pl.front.Get(u.in.Ra)
		}
		if u.in.Op.ReadsRb() {
			u.src2 = pl.front.Get(u.in.Rb)
		}
		// Conditional moves read the prior destination mapping.
		if isCMOV(u.in.Op) {
			u.oldDest = pl.front.Get(u.in.Rd)
		}

		// Integration attempt (the paper's rename-stage logic), on the
		// IT key and set found once for this instruction.
		key, set := pl.integ.Locate(u.in, u.pc, u.callDepth)
		pl.probeU = u
		res, status, integrated := pl.integ.TryIntegrate(
			u.in, key, set, u.seq, pl.front, pl.prb)
		pl.probeU = nil

		switch {
		case integrated && res.IsBranch:
			u.integrated = true
			u.intRes = res
			u.intStatus = status
			u.resolvedTaken = res.Taken
			u.resolvedAt = pl.now

		case integrated:
			u.integrated = true
			u.intRes = res
			u.intStatus = status
			u.hasDest = true
			u.destPreg = res.Out
			u.destGen = res.OutGen
			u.oldDest = pl.front.Set(u.in.Rd, rename.Mapping{P: res.Out, Gen: res.OutGen})
			u.undoValid = true

		case u.in.Op.HasDest() && u.in.Rd != isa.RegZero:
			p, ok := pl.rf.Alloc()
			if !ok {
				panic("pipeline: register allocation failed after pre-check")
			}
			u.hasDest = true
			u.destPreg = p
			u.destGen = pl.rf.Gen(p)
			u.oldDest = pl.front.Set(u.in.Rd, rename.Mapping{P: p, Gen: u.destGen})
			u.undoValid = true
			pl.prod[p] = u
			// Link values of direct/indirect calls are known at rename.
			if u.in.Op.IsCall() {
				pl.setReady(p, u.pc+isa.InstrBytes)
				pl.prod[p] = nil
			}
		}

		// IT entry creation.
		outMap := rename.Mapping{P: u.destPreg, Gen: u.destGen}
		if !u.hasDest {
			outMap = rename.Mapping{P: regfile.NoReg}
		}
		pl.integ.NoteRenamed(u.in, key, set, u.seq,
			u.src1, u.src2, outMap, u.oldDest, u.integrated)

		// Dispatch.
		pl.rob.push(u)
		if isMem {
			u.isLoad = u.in.Op.IsLoad()
			u.isStore = u.in.Op.IsStore()
			u.lsqPos = pl.lsq.push(u)
		}
		if !u.integrated && needsExecution(u.in) {
			u.needsRS = true
			pl.allocRS(u)
		}

		// Integrated branch: early resolution at rename. A disagreement
		// with the fetch-time prediction redirects the front end now,
		// far cheaper than an execute-time mispredict.
		if u.integrated && u.intRes.IsBranch {
			actualNext := u.pc + isa.InstrBytes
			if u.resolvedTaken {
				actualNext = u.in.Target(u.pc)
			}
			if u.resolvedTaken != u.predTaken {
				pl.renameRedirect(u, actualNext)
				return
			}
		}
	}
}

// renameRedirect handles an integrated branch whose recorded outcome
// disagrees with the fetch-time prediction: drop the (younger) fetch
// queue, repair history, and refetch. Nothing renamed is squashed, so it
// bypasses refetch and counts no Stats.Squashes.
func (pl *Pipeline) renameRedirect(u *uop, target uint64) {
	pl.fqDrain()
	pl.pred.RestoreAfter(u.histSnap, u.resolvedTaken)
	pl.ras.Restore(u.rasSnap) // conditional branches have no RAS effect
	pl.redirectFetch(target, u.traceIdx, false)
}
