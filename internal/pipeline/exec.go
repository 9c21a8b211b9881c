package pipeline

import (
	"rix/internal/isa"
	"rix/internal/regfile"
)

// completeStage drains this cycle's completion events and returns the
// slot's buffer to the reuse pool; schedule can never append to the
// current slot mid-drain because events always land at least one cycle
// out.
//
//rix:hotpath
func (pl *Pipeline) completeStage() {
	slot := pl.now % eventHorizon
	evs := pl.events[slot]
	if evs == nil {
		return
	}
	pl.events[slot] = nil
	for _, ev := range evs {
		// Drop events for squashed uops — including recycled carcasses,
		// whose sequence number no longer matches the stamp.
		if ev.u.squashed || ev.u.seq != ev.seq {
			continue
		}
		switch ev.kind {
		case evExec:
			pl.execComplete(ev.u)
		case evAddrGen:
			pl.loadAddrGen(ev.u)
		case evLoadRetry:
			pl.loadAccess(ev.u)
		case evLoadDone:
			pl.loadComplete(ev.u, ev.val)
		case evStoreExec:
			pl.storeExec(ev.u)
		}
	}
	pl.evFree = append(pl.evFree, evs[:0])
}

// val reads a source physical register's value.
func (pl *Pipeline) val(p regfile.PReg) uint64 {
	if p == regfile.ZeroReg {
		return 0
	}
	return pl.rf.Value(p)
}

// execComplete finishes a non-memory instruction: computes the result,
// publishes it, and resolves control.
func (pl *Pipeline) execComplete(u *uop) {
	a := pl.val(u.src1.P)
	b := pl.val(u.src2.P)
	switch u.in.Op.ClassOf() {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassFP:
		old := pl.val(u.oldDest.P) // conditional moves
		v := isa.EvalOp(u.in.Op, a, b, old, u.in.Imm)
		if u.hasDest {
			pl.setReady(u.destPreg, v)
		}
		u.execDone = true

	case isa.ClassBranch:
		taken := isa.EvalBranch(u.in.Op, a)
		u.resolvedTaken = taken
		u.resolvedAt = pl.now
		u.execDone = true
		// Extension-2/3 machinery: branch outcome entries are inserted at
		// resolution, keyed by the rename-time input mapping.
		pl.integ.NoteBranchResolved(u.in, u.pc, u.callDepth, u.seq, u.src1, taken)
		if taken != u.predTaken {
			target := u.pc + isa.InstrBytes
			if taken {
				target = u.in.Target(u.pc)
			}
			// Squash younger, refetch the correct target, and repair
			// the history to reflect the actual outcome.
			pl.refetch(u, false, target)
			pl.pred.RestoreAfter(u.histSnap, taken)
		}

	case isa.ClassCallIndirect, isa.ClassJumpIndirect, isa.ClassRet:
		target := b // all take the target from Rb
		u.resolvedTarget = target
		u.resolvedAt = pl.now
		u.execDone = true
		if u.in.Op.ClassOf() != isa.ClassRet {
			pl.btb.Train(u.pc, target)
		}
		if target != u.predTarget {
			pl.refetch(u, false, target)
		}
	}
}

// loadAddrGen computes the effective address one cycle after issue, then
// starts the memory access or store-queue forward.
func (pl *Pipeline) loadAddrGen(u *uop) {
	u.addr = isa.EffAddr(pl.val(u.src1.P), u.in.Imm)
	u.addrValid = true
	pl.loadAccess(u)
}

// loadAccess resolves where the load's data comes from: the youngest
// older store with a matching resolved address (forwarding), or memory.
// Unresolved older store addresses are recorded — the load speculates
// past them (paper §3.1).
func (pl *Pipeline) loadAccess(u *uop) {
	var match *uop
	for i := pl.lsq.pos(u.lsqPos) - 1; i >= 0; i-- {
		v := pl.lsq.at(i)
		if !v.isStore {
			continue
		}
		if !v.addrValid {
			u.specPastStores = true
			continue
		}
		if v.addr == u.addr && v.in.Op.IsStore() && sameWidth(u.in.Op, v.in.Op) {
			match = v
			break
		}
		if overlaps(u, v) {
			// Partial overlap: retry until the store leaves the LSQ
			// (rare; workloads use aligned same-width accesses).
			pl.schedule(pl.now+2, event{kind: evLoadRetry, u: u})
			return
		}
	}
	if match != nil {
		pl.Stats.LoadsForwarded++
		u.fwdFromSeq = match.seq
		v := match.storeData
		if u.in.Op == isa.LDL {
			v = uint64(int64(int32(uint32(v))))
		}
		pl.schedule(pl.now+pl.cfg.Mem.StoreForwardLat, event{kind: evLoadDone, u: u, val: v})
		return
	}
	// Memory: value captured from architectural memory now (older stores
	// either forwarded above or already retired into it); timing from the
	// cache hierarchy.
	var v uint64
	if u.in.Op == isa.LDQ {
		v = pl.archMem.Read64(u.addr)
	} else {
		v = pl.archMem.Read32(u.addr)
	}
	done := pl.mem.Load(u.addr, pl.now)
	pl.schedule(done, event{kind: evLoadDone, u: u, val: v})
}

func sameWidth(load, store isa.Opcode) bool {
	return (load == isa.LDQ) == (store == isa.STQ)
}

// overlaps reports whether a load and store touch overlapping bytes
// without being an exact same-width match.
func overlaps(ld, st *uop) bool {
	lw, sw := width(ld.in.Op), width(st.in.Op)
	return ld.addr < st.addr+sw && st.addr < ld.addr+lw
}

func width(op isa.Opcode) uint64 {
	switch op {
	case isa.LDQ, isa.STQ:
		return 8
	default:
		return 4
	}
}

// loadComplete publishes the load's value.
func (pl *Pipeline) loadComplete(u *uop, v uint64) {
	if u.hasDest {
		pl.setReady(u.destPreg, v)
	}
	u.execDone = true
}

// storeExec resolves a store's address and data, then scans younger
// executed loads for memory-order violations.
func (pl *Pipeline) storeExec(u *uop) {
	u.addr = isa.EffAddr(pl.val(u.src1.P), u.in.Imm)
	u.storeData = pl.val(u.src2.P)
	u.addrValid = true
	u.execDone = true

	// Violation scan: a younger load that already obtained its value from
	// memory or from a store older than this one, at an overlapping
	// address, mis-speculated.
	for i := pl.lsq.pos(u.lsqPos) + 1; i < pl.lsq.len(); i++ {
		v := pl.lsq.at(i)
		if !v.isLoad || !v.addrValid || v.squashed {
			continue
		}
		if !(v.execDone || v.issued) {
			continue
		}
		lw := width(v.in.Op)
		sw := width(u.in.Op)
		if !(v.addr < u.addr+sw && u.addr < v.addr+lw) {
			continue
		}
		if v.fwdFromSeq > u.seq {
			continue // load correctly forwarded from a younger store
		}
		// Mis-speculation: full squash from the load (paper §3.1), and
		// train the collision history table.
		pl.Stats.LoadViolations++
		pl.cht.Train(v.pc)
		pl.refetch(v, true, v.pc)
		return
	}
}
