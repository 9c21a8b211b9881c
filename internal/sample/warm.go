package sample

import (
	"sync"
	"sync/atomic"

	"rix/internal/bpred"
	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/isa"
	"rix/internal/memsys"
	"rix/internal/pipeline"
)

// warmer is the functional-warmup half of the sampling engine: while the
// emulator fast-forwards between measurement windows, every architectural
// instruction is folded into the long-lived microarchitectural state —
// cache and TLB tags, branch-direction tables and global history, BTB
// targets, and the return-address stack (whose top-of-stack index seeds
// the call depth that extension 2 mixes into the IT index).
//
// Three kinds of state are deliberately not warmed functionally:
//
//   - Timing state (MSHRs, buses, write buffer) is empty at any
//     instruction boundary and starts cold by construction.
//
//   - Rename-dependent state — the integration table and the register
//     file — names physical registers that exist only inside one
//     pipeline instance. Each window warms it during its detailed
//     warmup prefix (pipeline.RunWindowContext's warmup mode):
//     full-detail execution with statistics gated off. Measured across
//     the suite, a few hundred instructions of detailed warmup
//     reproduce the IT's steady-state match behavior; a functional
//     occupancy model adds nothing.
//
//   - DIVA feedback — the LISP, a never-aging table — trains on
//     microarchitectural accidents (mis-integrations) that no
//     architectural model reproduces. The window coordinator instead
//     chains each completed window's final LISP state into the next
//     window's boot (WindowJob.Feedback), mirroring how a handful of
//     early training events shape the full machine's entire run; no
//     boundary carries it. The LISP keeps its recency as a rank within
//     each set, so the chain changes only when a window trains the LISP
//     or reorders a set: most windows settle with exactly the feedback
//     they booted with, and the coordinator's speculative successors
//     stand. Cells whose policy never reads the LISP chain nothing
//     (chainsFeedback).
//
// The CHT, trained only by detailed execution too, is neither warmed
// nor chained: every window boots a cold one and re-discovers its
// store→load collisions in detail. That biases the call-rich programs:
// booting each window with the full run's CHT instead (injected
// through Config.Warm) moves crafty's +general speedup error from
// −10.7% to −5.4% and vortex's from −3.0% to −0.2% (ROADMAP item 1).
type warmer struct {
	*warmParts
	lastLine uint64 // last I-side line touched; ^0 = none
	lineMask uint64
}

// warmParts is one set of the long-lived structures a window boots
// from. The warmer keeps one live set; every live ring entry and every
// window executor (slot) holds another, refilled per boundary or window
// by copy (copyFrom) or by restoring a snapshot (setState). Sets come
// from and go back to a process-wide pool (getParts, putParts), so a
// matrix of cells builds them once.
type warmParts struct {
	pipeline.Warm
	geom bootGeom
}

// bootGeom is the machine geometry a set of warm parts is built for:
// parts of one geometry restore into each other, whatever the cells'
// integration policies.
type bootGeom struct {
	Pred bpred.Config
	Mem  memsys.Config
}

func geomOf(cfg pipeline.Config) bootGeom {
	return bootGeom{Pred: cfg.Pred, Mem: cfg.Mem}
}

// partsBuilt counts the warm part sets built, for the pooling tests.
var partsBuilt atomic.Int64

func newWarmParts(cfg pipeline.Config) *warmParts {
	partsBuilt.Add(1)
	return &warmParts{Warm: pipeline.NewWarm(cfg), geom: geomOf(cfg)}
}

// maxPooledParts bounds the pool: a set is about 1 MB, and a matrix
// holds at most a warmer and a ring per running cell plus a set per
// window slot.
const maxPooledParts = 16

// partsPool is the process-wide free list of warm part sets. It holds
// one geometry at a time — every registered spec shares one — and a set
// of another geometry replaces its contents. cold is a never-handed-out
// cold set of that geometry, the state a pooled warmer resets to.
var partsPool struct {
	sync.Mutex
	geom bootGeom
	free []*warmParts
	cold *warmParts
}

// getParts returns a set of cfg's geometry in an arbitrary state: the
// caller restores it.
func getParts(cfg pipeline.Config) *warmParts {
	g := geomOf(cfg)
	partsPool.Lock()
	if n := len(partsPool.free); n > 0 && partsPool.geom == g {
		wp := partsPool.free[n-1]
		partsPool.free = partsPool.free[:n-1]
		partsPool.Unlock()
		return wp
	}
	partsPool.Unlock()
	return newWarmParts(cfg)
}

// putParts hands a set back to the pool once nothing uses it.
func putParts(wp *warmParts) {
	partsPool.Lock()
	defer partsPool.Unlock()
	if partsPool.geom != wp.geom {
		partsPool.geom, partsPool.free, partsPool.cold = wp.geom, nil, nil
	}
	if len(partsPool.free) < maxPooledParts {
		partsPool.free = append(partsPool.free, wp)
	}
}

// coldParts returns a cold set of cfg's geometry, reset by a delta copy
// from the pool's cold set.
func coldParts(cfg pipeline.Config) (*warmParts, error) {
	wp := getParts(cfg)
	partsPool.Lock()
	if partsPool.cold == nil || partsPool.cold.geom != wp.geom {
		partsPool.cold = newWarmParts(cfg)
	}
	cold := partsPool.cold
	partsPool.Unlock()
	return wp, wp.copyFrom(cold)
}

// chainsFeedback reports whether a cell's windows can observe the LISP
// feedback chain: the LISP is read only by Suppress, which runs only
// with integration on under UseLISP. Everywhere else the chain is
// neither snapshotted, validated nor carried in boundaries.
func chainsFeedback(p core.Policy) bool { return p.Enable && p.UseLISP }

// newWarmer returns a warmer with the tables of wp, which must be cold.
func newWarmer(cfg pipeline.Config, wp *warmParts) *warmer {
	return &warmer{
		warmParts: wp,
		lastLine:  ^uint64(0),
		lineMask:  ^(uint64(cfg.Mem.L1I.LineBytes) - 1),
	}
}

// observe folds one architecturally executed instruction into the warm
// state. pc is the instruction's PC, rec its trace record, and nextPC the
// architectural successor (the emulator's PC after the step), which
// trains the BTB for indirect transfers.
//
//rix:hotpath
func (w *warmer) observe(in isa.Instr, pc uint64, rec emu.TraceRec, nextPC uint64) {
	// One I-side tag touch per fetch line, mirroring the front end's one
	// I-cache access per fetch group.
	if pc&w.lineMask != w.lastLine {
		w.lastLine = pc & w.lineMask
		w.Hier.WarmFetch(pc)
	}
	switch in.Op.ClassOf() {
	case isa.ClassLoad:
		w.Hier.WarmLoad(rec.Addr)
	case isa.ClassStore:
		w.Hier.WarmStore(rec.Addr)
	case isa.ClassBranch:
		// Predict to capture the training snapshot, shift the *actual*
		// outcome into the global history (the post-retirement state of a
		// full-detail run), and train the tables.
		taken := rec.Value == 1
		_, snap := w.Pred.Predict(pc)
		w.Pred.SpecUpdate(taken)
		w.Pred.Train(pc, taken, snap)
	case isa.ClassCallDirect:
		w.RAS.Push(pc + isa.InstrBytes)
	case isa.ClassCallIndirect:
		w.RAS.Push(pc + isa.InstrBytes)
		w.BTB.Train(pc, nextPC)
	case isa.ClassJumpIndirect:
		w.BTB.Train(pc, nextPC)
	case isa.ClassRet:
		w.RAS.Pop()
	}
}

// WarmSnapshot is the serializable warm state at a window boundary — the
// microarchitectural half of a Checkpoint: exactly what functional
// warming computes, so it depends only on the program, the window
// layout and the machine geometry, never on the integration policy.
// CHT, the collision history table (store→load dependence), is carried
// cold: the warmer never trains it, though a caller may inject a
// trained one (Config.Warm). LastLine is the warmer's I-side touch
// deduplication cursor, carried so a restored warmer (Continue) folds
// exactly the same touches an uninterrupted one would.
type WarmSnapshot struct {
	Pred     bpred.PredictorState
	BTB      bpred.BTBState
	RAS      bpred.RASState
	CHT      bpred.CHTState
	Mem      memsys.WarmState
	LastLine uint64
}

// snapshot deep-copies the current warm state.
func (w *warmer) snapshot() WarmSnapshot {
	ws := WarmSnapshot{LastLine: w.lastLine}
	w.warmParts.snapshot(&ws)
	return ws
}

// snapshot deep-copies the set's tables into ws, leaving its I-side
// touch cursor as it is.
func (wp *warmParts) snapshot(ws *WarmSnapshot) {
	ws.Pred = wp.Pred.State()
	ws.BTB = wp.BTB.State()
	ws.RAS = wp.RAS.State()
	ws.CHT = wp.CHT.State()
	ws.Mem = wp.Hier.WarmState()
}

// warmerFromSnapshot rebuilds a live warmer from a checkpoint's warm
// snapshot — the continuation path (Continue): the restored warmer keeps
// folding fast-forwarded instructions into the exact state the
// interrupted run held, so the continuation's later windows are
// bit-identical to the uninterrupted run's.
func warmerFromSnapshot(cfg pipeline.Config, ws WarmSnapshot) (*warmer, error) {
	wp := getParts(cfg)
	if err := wp.setState(ws); err != nil {
		return nil, err
	}
	w := newWarmer(cfg, wp)
	w.lastLine = ws.LastLine
	return w, nil
}

// setState restores a warm snapshot's tables in place. Each
// structure's SetState zeroes its tallies and the hierarchy's empties
// its timing state, so a reused set is indistinguishable from a freshly
// built one.
func (wp *warmParts) setState(ws WarmSnapshot) error {
	if err := wp.Pred.SetState(ws.Pred); err != nil {
		return err
	}
	if err := wp.BTB.SetState(ws.BTB); err != nil {
		return err
	}
	if err := wp.RAS.SetState(ws.RAS); err != nil {
		return err
	}
	if err := wp.CHT.SetState(ws.CHT); err != nil {
		return err
	}
	return wp.Hier.SetWarmState(ws.Mem)
}

// copyFrom overwrites the set's tables with src's behavioral state
// without allocating: each structure's CopyFrom leaves it as its
// SetState of src's snapshot would, the hierarchy's copying only the
// cache sets whose stamps differ. Both sets must share one geometry.
func (wp *warmParts) copyFrom(src *warmParts) error {
	if err := wp.Pred.CopyFrom(src.Pred); err != nil {
		return err
	}
	if err := wp.BTB.CopyFrom(src.BTB); err != nil {
		return err
	}
	if err := wp.RAS.CopyFrom(src.RAS); err != nil {
		return err
	}
	if err := wp.CHT.CopyFrom(src.CHT); err != nil {
		return err
	}
	return wp.Hier.CopyWarmFrom(src.Hier)
}
