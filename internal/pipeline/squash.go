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
// instruction's checkpoints, and drops the fetch queue. refetch is its
// only caller: renameRedirect drops just the fetch queue, and
// drainInFlight empties the ROB without counting a squash or repairing
// the RAS and history.
func (pl *Pipeline) squashFrom(u *uop, inclusive bool) {
	pl.Stats.Squashes++

	// The fetch queue holds only instructions younger than anything
	// renamed; all of it goes. Recycled carcasses keep their checkpoint
	// snapshots readable until the next fetch, so restoring from oldest
	// below stays valid.
	oldest := pl.fqDrain()

	for pl.rob.len() > 0 {
		v := pl.rob.at(pl.rob.len() - 1)
		if v == u && !inclusive {
			break
		}
		pl.rob.popTail()
		pl.undoUop(v)
		if v.lsqPos >= 0 && pl.lsq.popTail() != v {
			panic("pipeline: squashed memory op is not the LSQ tail")
		}
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

// refetch is the recovery from every squash that redirects fetch: a
// mispredicted branch or indirect target (exclusive: u stays and fetch
// resumes at its resolved target) and a memory-order violation or DIVA
// fault (inclusive: u itself is refetched from its own pc). The caller
// repairs anything else, such as a branch's history.
func (pl *Pipeline) refetch(u *uop, inclusive bool, pc uint64) {
	traceIdx := u.traceIdx // read first: an inclusive squash recycles u
	pl.squashFrom(u, inclusive)
	pl.redirectFetch(pc, traceIdx, inclusive)
}
