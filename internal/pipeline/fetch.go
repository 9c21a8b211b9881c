package pipeline

import (
	"rix/internal/isa"
)

func isaReg(l int) isa.Reg { return isa.Reg(l) }

// fetchStage fetches up to FetchWidth instructions along the predicted
// path, charging the I-cache and maintaining the golden-trace cursor that
// labels correct-path instructions.
//
//rix:hotpath
func (pl *Pipeline) fetchStage() {
	if pl.fetchPC == 0 || pl.now < pl.fetchReadyAt {
		return
	}
	if pl.fq.full() {
		return
	}

	// One I-cache access per fetch group.
	if !pl.icachePaid {
		done := pl.mem.IFetch(pl.fetchPC, pl.now)
		if done > pl.now+pl.cfg.Mem.L1I.HitLatency {
			pl.fetchReadyAt = done
			pl.icachePaid = true
			pl.Stats.FetchStallsICache++
			return
		}
	}
	pl.icachePaid = false

	for n := 0; n < pl.cfg.FetchWidth && !pl.fq.full(); n++ {
		in, ok := pl.prog.InstrAt(pl.fetchPC)
		if !ok {
			// Wrong-path fetch ran off the text segment; wait for a
			// redirect.
			pl.fetchPC = 0
			return
		}
		u := pl.newUop()
		u.pc = pl.fetchPC
		u.in = in
		u.fetchCycle = pl.now
		u.renameReady = pl.now + pl.cfg.FrontendDepth
		u.rsIdx = -1
		u.lsqPos = -1
		u.traceIdx = -1
		u.callDepth = pl.ras.Depth()
		u.rasSnap = pl.ras.Snapshot()
		u.histSnap = pl.pred.HistSnapshot()

		// Golden-trace tracking: on the correct path, the fetch PC must
		// equal the next trace record's PC (pulled incrementally from the
		// streaming source).
		if pl.onPath && pl.win.has(pl.cursor) {
			if pl.win.at(pl.cursor).PC(pl.prog) == pl.fetchPC {
				u.traceIdx = int64(pl.cursor)
				pl.cursor++
			} else {
				pl.onPath = false
			}
		} else {
			pl.onPath = false
		}
		if !pl.onPath {
			pl.Stats.FetchedWrongPath++
		}
		pl.Stats.Fetched++

		nextPC := pl.fetchPC + isa.InstrBytes
		groupEnds := false
		switch in.Op.ClassOf() {
		case isa.ClassBranch:
			taken, snap := pl.pred.Predict(u.pc)
			u.histSnap = snap
			u.predTaken = taken
			pl.pred.SpecUpdate(taken)
			if taken {
				nextPC = in.Target(u.pc)
				groupEnds = true
			}
		case isa.ClassJumpDirect:
			nextPC = in.Target(u.pc)
			groupEnds = true
		case isa.ClassCallDirect:
			pl.ras.Push(u.pc + isa.InstrBytes)
			nextPC = in.Target(u.pc)
			groupEnds = true
		case isa.ClassCallIndirect:
			pl.ras.Push(u.pc + isa.InstrBytes)
			if tgt, ok := pl.btb.Predict(u.pc); ok {
				u.predTarget = tgt
				nextPC = tgt
			} else {
				nextPC = 0 // stall until resolution redirects
			}
			groupEnds = true
		case isa.ClassJumpIndirect:
			if tgt, ok := pl.btb.Predict(u.pc); ok {
				u.predTarget = tgt
				nextPC = tgt
			} else {
				nextPC = 0
			}
			groupEnds = true
		case isa.ClassRet:
			if tgt, ok := pl.ras.Pop(); ok {
				u.predTarget = tgt
				nextPC = tgt
			} else {
				nextPC = 0
			}
			groupEnds = true
		}

		pl.fq.push(u)
		pl.fetchPC = nextPC
		if groupEnds || nextPC == 0 {
			return
		}
	}
}

// redirectFetch points fetch at pc starting next cycle and resets the
// golden cursor after the instruction at traceIdx, or at it when
// inclusive (it is refetched itself); a wrong-path instruction
// (traceIdx < 0) leaves fetch off the path. refetch and renameRedirect
// call it.
func (pl *Pipeline) redirectFetch(pc uint64, traceIdx int64, inclusive bool) {
	pl.fetchPC = pc
	pl.fetchReadyAt = pl.now + 1
	pl.icachePaid = false
	pl.onPath = traceIdx >= 0
	if pl.onPath {
		pl.cursor = int(traceIdx)
		if !inclusive {
			pl.cursor++
		}
	}
}
