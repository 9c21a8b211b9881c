package pipeline

import (
	"fmt"

	"rix/internal/isa"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// retireStage retires up to RetireWidth completed instructions in order,
// running the DIVA check on each. DIVA re-execution is modelled by
// comparison against the golden architectural trace: any value the
// machine is about to commit that differs from the architectural result
// is a fault. Integrated instructions faulting this way are
// mis-integrations; speculative loads faulting are late-caught ordering
// violations; anything else is a simulator bug.
//
//rix:hotpath
func (pl *Pipeline) retireStage() {
	if pl.now < pl.retireStall {
		return
	}
	for n := 0; n < pl.cfg.RetireWidth && pl.rob.len() > 0; n++ {
		u := pl.rob.at(0)
		if !u.completed(pl.rf) {
			return
		}
		if u.traceIdx != int64(pl.Stats.Retired) {
			//rix:alloc-ok — divergence panic: simulator-bug path
			panic(fmt.Sprintf("pipeline: retirement stream diverged at %d: uop trace %d pc %#x",
				pl.Stats.Retired, u.traceIdx, u.pc))
		}
		rec := pl.win.at(int(u.traceIdx))
		if rec.PC(pl.prog) != u.pc {
			panic("pipeline: retiring PC does not match golden trace")
		}

		// DIVA value check.
		if bad, kind := pl.divaCheck(u); bad {
			pl.handleDIVAFault(u, kind)
			return
		}

		// Commit.
		if u.isStore {
			pl.commitStore(u)
		}
		if u.hasDest {
			old := pl.arch.Get(u.in.Rd)
			if old.P != regfile.ZeroReg {
				pl.rf.Release(old.P, regfile.CauseShadow)
			}
			pl.arch.Set(u.in.Rd, rename.Mapping{P: u.destPreg, Gen: u.destGen})
			if pl.prod[u.destPreg] == u {
				pl.prod[u.destPreg] = nil
			}
		}
		if u.isCondBranch() {
			pl.Stats.CondBranches++
			pl.pred.Train(u.pc, u.resolvedTaken, u.histSnap)
			if u.resolvedTaken != u.predTaken {
				pl.Stats.CondMispredicts++
				pl.Stats.ResolutionLatency += u.resolvedAt - u.fetchCycle
			}
		}
		if u.in.Op.ClassOf() == isa.ClassCallIndirect ||
			u.in.Op.ClassOf() == isa.ClassJumpIndirect ||
			u.in.Op.ClassOf() == isa.ClassRet {
			pl.Stats.IndirectBranches++
			if u.resolvedTarget != u.predTarget {
				pl.Stats.IndirectMispreds++
			}
		}
		if u.isLoad {
			pl.Stats.LoadsRetired++
			if u.in.IsSPLoad() {
				pl.Stats.SPLoadsRetired++
			}
		}
		if u.integrated {
			pl.noteIntegrationRetired(u)
		}

		pl.rob.popHead()
		if u.lsqPos >= 0 && pl.lsq.popHead() != u {
			panic("pipeline: retiring memory op is not the LSQ head")
		}
		pl.Stats.Retired++
		pl.win.release(int(pl.Stats.Retired))
		pl.freeUop(u)
		if !pl.win.has(int(pl.Stats.Retired)) {
			// End of golden stream: the whole trace has retired.
			pl.halted = true
			return
		}
		if pl.now < pl.retireStall {
			// Write buffer full: the store committed but retirement
			// backpressure stalls the rest of the group.
			return
		}
	}
}

// divaKind classifies DIVA faults.
type divaKind uint8

const (
	faultMisIntegration divaKind = iota
	faultLateViolation
)

// divaCheck compares the uop's committed effect against the golden trace.
func (pl *Pipeline) divaCheck(u *uop) (bool, divaKind) {
	rec := pl.win.at(int(u.traceIdx))
	var bad bool
	switch {
	case u.isStore:
		bad = u.addr != rec.Addr || u.storeData != rec.Value
	case u.isCondBranch():
		bad = u.resolvedTaken != (rec.Value == 1)
	case u.hasDest:
		bad = pl.rf.Value(u.destPreg) != rec.Value
	}
	if !bad {
		return false, 0
	}
	switch {
	case u.integrated:
		return true, faultMisIntegration
	case u.isLoad && u.specPastStores:
		return true, faultLateViolation
	default:
		panic(fmt.Sprintf(
			"pipeline: DIVA fault on non-integrated %v at %#x (trace %d): simulator bug",
			u.in.Op, u.pc, u.traceIdx))
	}
}

// handleDIVAFault performs the paper's mis-integration recovery: a
// complete pipeline flush including the faulting instruction, modelled as
// monolithic single-cycle recovery, plus LISP/IT training.
func (pl *Pipeline) handleDIVAFault(u *uop, kind divaKind) {
	switch kind {
	case faultMisIntegration:
		pl.Stats.MisIntegrations++
		if u.in.Op.IsLoad() {
			pl.Stats.MisIntLoads++
		} else {
			pl.Stats.MisIntRegs++
		}
		if pl.cfg.Policy.Oracle {
			pl.Stats.OracleResidual++
		}
		pl.integ.OnMisIntegration(u.in, u.pc, u.intRes.Entry, u.intRes.EntryStamp)
	case faultLateViolation:
		pl.Stats.LateLoadViolation++
		pl.cht.Train(u.pc)
	}
	pl.Stats.DIVAFlushes++
	pl.refetch(u, true, u.pc)
}

// commitStore writes the store architecturally and charges the write
// buffer; a full buffer stalls subsequent retirement.
func (pl *Pipeline) commitStore(u *uop) {
	if u.in.Op == isa.STQ {
		pl.archMem.Write64(u.addr, u.storeData)
	} else {
		pl.archMem.Write32(u.addr, u.storeData)
	}
	admitAt := pl.mem.Store(u.addr, pl.now)
	if admitAt > pl.now {
		pl.retireStall = admitAt
	}
}

// noteIntegrationRetired accumulates the paper's integration statistics;
// rates are measured at retirement to avoid counting squashed
// integrations (§3.2).
func (pl *Pipeline) noteIntegrationRetired(u *uop) {
	pl.Stats.Integrated++
	if u.intRes.Reverse {
		pl.Stats.IntegratedReverse++
	} else {
		pl.Stats.IntegratedDirect++
	}
	pl.Stats.IntType[u.integrationType()]++
	pl.Stats.IntDistance[distanceBucket(u.intRes.Distance)]++
	pl.Stats.IntStatus[u.intStatus]++
	if !u.intRes.IsBranch {
		pl.Stats.IntRefcount[refcountBucket(u.intRes.RefAfter)]++
	}
}
