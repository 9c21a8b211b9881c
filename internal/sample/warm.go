package sample

import (
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
//     early training events shape the full machine's entire run. The
//     CHT is deliberately not chained: measured at the default window
//     length, chaining adopts collision entries born from window-boot
//     timing accidents, and the over-conservative loads cost more IPC
//     accuracy than per-window re-discovery does (at very short windows
//     the trade reverses — keep Window at a few hundred instructions or
//     more).
type warmer struct {
	warmParts
	lastLine uint64 // last I-side line touched; ^0 = none
	lineMask uint64
}

// warmParts is one set of the long-lived structures a window boots
// from. The warmer keeps one live set; every live ring entry and every
// window executor (slot) pools another, refilled per boundary or window
// by copy (copyFrom) or by restoring a snapshot (setState).
type warmParts struct {
	pipeline.Warm
	lisp *core.LISP // feedback carrier only, never trained functionally; nil when the policy is off
}

func newWarmParts(cfg pipeline.Config) warmParts {
	wp := warmParts{Warm: pipeline.NewWarm(cfg)}
	if cfg.Policy.Enable {
		wp.lisp = core.NewLISP(cfg.LISP)
	}
	return wp
}

func newWarmer(cfg pipeline.Config) *warmer {
	return &warmer{
		warmParts: newWarmParts(cfg),
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
// microarchitectural half of a Checkpoint. LISP and CHT carry the
// feedback chained from completed windows (the warmer itself never
// trains them); their contents depend on the cell's policy, which makes
// a checkpoint set specific to one machine configuration. LastLine is
// the warmer's I-side touch deduplication cursor, carried so a restored
// warmer (Continue) folds exactly the same touches an uninterrupted one
// would.
type WarmSnapshot struct {
	Pred     bpred.PredictorState
	BTB      bpred.BTBState
	RAS      bpred.RASState
	CHT      bpred.CHTState
	Mem      memsys.WarmState
	LISP     core.LISPState
	LastLine uint64
}

// snapshot deep-copies the current warm state.
func (w *warmer) snapshot() WarmSnapshot {
	ws := WarmSnapshot{LastLine: w.lastLine}
	if w.lisp != nil {
		ws.LISP = w.lisp.State()
	}
	w.warmParts.snapshot(&ws)
	return ws
}

// snapshot deep-copies the set's tables into ws, leaving its LISP and
// I-side touch cursor as they are.
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
// bit-identical to the uninterrupted run's. Its LISP stays cold, as
// the interrupted pass's was: the snapshot's LISP is feedback the
// coordinator chains itself.
func warmerFromSnapshot(cfg pipeline.Config, ws WarmSnapshot) (*warmer, error) {
	w := newWarmer(cfg)
	if err := w.setState(ws); err != nil {
		return nil, err
	}
	w.lastLine = ws.LastLine
	return w, nil
}

// setState restores a warm snapshot's tables in place (the LISP is the
// window boot's to set). Each structure's SetState zeroes its tallies
// and the hierarchy's empties its timing state, so a reused set is
// indistinguishable from a freshly built one.
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
// without allocating (the LISP is the window boot's to set): each
// CopyFrom is its structure's SetState of a view of src, so the copy is
// indistinguishable from a setState of src's snapshot. Both sets must
// share one geometry.
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
