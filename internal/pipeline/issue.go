package pipeline

import (
	"math/bits"

	"rix/internal/isa"
	"rix/internal/regfile"
)

// priorityOf orders issue candidates: loads, branches and floating-point
// first (paper §3.1), age as the tie-breaker.
func priorityOf(u *uop) int {
	switch u.in.Op.ClassOf() {
	case isa.ClassLoad:
		return 0
	case isa.ClassBranch, isa.ClassCallIndirect, isa.ClassJumpIndirect, isa.ClassRet:
		return 0
	case isa.ClassFP:
		return 0
	default:
		return 1
	}
}

// ready reports whether source register p has its value.
func (pl *Pipeline) ready(p regfile.PReg) bool {
	return p == regfile.ZeroReg || pl.rf.Ready(p)
}

// loadMayIssue applies the memory-ordering issue policy: loads issue
// speculatively past unresolved older stores, unless the collision
// history table predicts a conflict, in which case the load waits until
// every older store address is resolved.
func (pl *Pipeline) loadMayIssue(u *uop) bool {
	if !pl.cht.Predict(u.pc) {
		return true
	}
	if pl.olderStoresResolved(u) {
		return true
	}
	pl.Stats.CHTStallsGranted++
	return false
}

// olderStoresResolved scans the LSQ for older stores with unresolved
// addresses.
func (pl *Pipeline) olderStoresResolved(u *uop) bool {
	for i := pl.lsq.pos(u.lsqPos) - 1; i >= 0; i-- {
		v := pl.lsq.at(i)
		if v.isStore && !v.addrValid {
			return false
		}
	}
	return true
}

// issueStage selects up to IssueWidth ready instructions under the
// per-class port constraints and dispatches them to execution. It walks
// only the wakeup ready mask, in slot order; the CHT check still sees
// every ready load every cycle, which its statistics count.
//
//rix:hotpath
func (pl *Pipeline) issueStage() {
	intPorts := pl.cfg.IntPorts
	fpPorts := pl.cfg.FPPorts
	loadPorts := pl.cfg.LoadPorts
	storePorts := pl.cfg.StorePorts
	budget := pl.cfg.IssueWidth

	cand := pl.cand[:0] // scratch preallocated to NumRS: no per-cycle allocation
	for k, b := range pl.wake.ready {
		for ; b != 0; b &= b - 1 {
			u := pl.rs[k*64+bits.TrailingZeros64(b)]
			if u.isLoad && !pl.loadMayIssue(u) {
				continue
			}
			cand = append(cand, u)
		}
	}
	if len(cand) == 0 {
		return
	}
	// Insertion sort by (priority, seq); seq is unique, so the order is
	// total and matches what sort.Slice produced.
	for i := 1; i < len(cand); i++ {
		u := cand[i]
		pu := u.prio
		j := i - 1
		for j >= 0 {
			pj := cand[j].prio
			if pj < pu || (pj == pu && cand[j].seq < u.seq) {
				break
			}
			cand[j+1] = cand[j]
			j--
		}
		cand[j+1] = u
	}

	for _, u := range cand {
		if budget == 0 {
			return
		}
		switch u.in.Op.ClassOf() {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassCallIndirect, isa.ClassJumpIndirect, isa.ClassRet:
			if intPorts == 0 {
				continue
			}
			intPorts--
		case isa.ClassIntMul, isa.ClassFP:
			if fpPorts == 0 {
				continue
			}
			fpPorts--
		case isa.ClassLoad:
			if loadPorts == 0 {
				continue
			}
			loadPorts--
		case isa.ClassStore:
			if pl.cfg.CombinedLS {
				if loadPorts == 0 {
					continue
				}
				loadPorts--
			} else {
				if storePorts == 0 {
					continue
				}
				storePorts--
			}
		}
		budget--
		pl.issue(u)
	}
}

// issue dispatches one uop, freeing its reservation station.
func (pl *Pipeline) issue(u *uop) {
	u.issued = true
	pl.Stats.Executed++
	pl.freeRS(u)

	switch {
	case u.isLoad:
		pl.schedule(pl.now+1, event{kind: evAddrGen, u: u})
	case u.isStore:
		pl.schedule(pl.now+1, event{kind: evStoreExec, u: u})
	case u.in.Op.IsControl():
		lat := uint64(u.in.Op.Latency()) + pl.cfg.ResolveDelay
		pl.schedule(pl.now+lat, event{kind: evExec, u: u})
	default:
		pl.schedule(pl.now+uint64(u.in.Op.Latency()), event{kind: evExec, u: u})
	}
}
