package pipeline

import (
	"rix/internal/regfile"
)

// undoUop reverses one instruction's rename effects: serial undo of the
// map table and the reference-count increment its mapping represents
// (paper §2.2, "reference-count consistency across mis-speculation").
func (pl *Pipeline) undoUop(u *uop) {
	u.squashed = true
	if u.undoValid {
		pl.front.Set(u.in.Rd, u.oldDest)
	}
	if u.hasDest {
		pl.rf.Release(u.destPreg, regfile.CauseSquash)
		if pl.prod[u.destPreg] == u {
			pl.prod[u.destPreg] = nil
		}
	}
	if u.rsIdx >= 0 {
		pl.unwaitRS(u)
	}
}

// squashFrom squashes every instruction younger than u, and u itself when
// inclusive. It restores the map table by walking the ROB serially from
// the tail, repairs the RAS and branch history from the oldest squashed
// instruction's checkpoints, and drops the fetch queue.
func (pl *Pipeline) squashFrom(u *uop, inclusive bool) {
	pl.Stats.Squashes++

	// The fetch queue holds only instructions younger than anything
	// renamed; all of it goes. Recycled carcasses keep their checkpoint
	// snapshots readable until the next fetch, so restoring from oldest
	// below stays valid.
	oldest := pl.fqDrain()

	for pl.robLen > 0 {
		tail := wrap(pl.robHead+pl.robLen-1, len(pl.rob))
		v := pl.rob[tail]
		if v == u && !inclusive {
			break
		}
		pl.undoUop(v)
		if v.lsqPos >= 0 {
			pl.popLSQTail(v)
		}
		pl.rob[tail] = nil
		pl.robLen--
		pl.freeUop(v)
		oldest = v
		if v == u {
			break
		}
	}

	if oldest != nil {
		pl.ras.Restore(oldest.rasSnap)
		pl.pred.Restore(oldest.histSnap)
	}
}

// popLSQTail removes a squashed memory op, which must be the LSQ tail.
func (pl *Pipeline) popLSQTail(v *uop) {
	tail := wrap(pl.lsqHead+pl.lsqLen-1, len(pl.lsq))
	if pl.lsq[tail] != v {
		panic("pipeline: squashed memory op is not the LSQ tail")
	}
	pl.lsq[tail] = nil
	pl.lsqLen--
}

// branchMispredict recovers from a resolved conditional branch whose
// direction disagrees with the prediction: squash younger, repair the
// history to reflect the actual outcome, and refetch the correct target.
func (pl *Pipeline) branchMispredict(u *uop, target uint64) {
	pl.squashFrom(u, false)
	pl.pred.RestoreAfter(u.histSnap, u.resolvedTaken)
	cursorAt := int64(-1)
	if u.traceIdx >= 0 {
		cursorAt = u.traceIdx + 1
	}
	pl.redirectFetch(target, cursorAt)
}

// indirectMispredict recovers from a wrong indirect target (JSR/JMP/RET).
func (pl *Pipeline) indirectMispredict(u *uop, target uint64) {
	pl.squashFrom(u, false)
	cursorAt := int64(-1)
	if u.traceIdx >= 0 {
		cursorAt = u.traceIdx + 1
	}
	pl.redirectFetch(target, cursorAt)
}

// loadViolationSquash recovers from a memory-order violation: full squash
// from the violating load inclusive, so it refetches and re-executes.
func (pl *Pipeline) loadViolationSquash(v *uop) {
	cursorAt := v.traceIdx // may be -1 (wrong path)
	pc := v.pc
	pl.squashFrom(v, true)
	pl.redirectFetch(pc, cursorAt)
}
