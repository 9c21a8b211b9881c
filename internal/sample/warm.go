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
//     warmup prefix (pipeline.RunWindow's warmup mode): full-detail
//     execution with statistics gated off. Measured across the suite,
//     a few hundred instructions of detailed warmup reproduce the IT's
//     steady-state match behavior; a functional occupancy model adds
//     nothing.
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
	pred *bpred.Predictor
	btb  *bpred.BTB
	ras  *bpred.RAS
	cht  *bpred.CHT
	hier *memsys.Hierarchy
	lisp *core.LISP // feedback carrier only, never trained functionally; nil when the policy is off
}

func newWarmParts(cfg pipeline.Config) warmParts {
	pc := cfg.Pred.WithDefaults()
	wp := warmParts{
		pred: bpred.NewPredictor(cfg.Pred),
		btb:  bpred.NewBTB(pc.BTBEntries),
		ras:  bpred.NewRAS(pc.RASEntries),
		cht:  bpred.NewCHT(pc.CHTEntries),
		hier: memsys.New(cfg.Mem),
	}
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
		w.hier.WarmFetch(pc)
	}
	switch in.Op.ClassOf() {
	case isa.ClassLoad:
		w.hier.WarmLoad(rec.Addr)
	case isa.ClassStore:
		w.hier.WarmStore(rec.Addr)
	case isa.ClassBranch:
		// Predict to capture the training snapshot, shift the *actual*
		// outcome into the global history (the post-retirement state of a
		// full-detail run), and train the tables.
		taken := rec.Value == 1
		_, snap := w.pred.Predict(pc)
		w.pred.SpecUpdate(taken)
		w.pred.Train(pc, taken, snap)
	case isa.ClassCallDirect:
		w.ras.Push(pc + isa.InstrBytes)
	case isa.ClassCallIndirect:
		w.ras.Push(pc + isa.InstrBytes)
		w.btb.Train(pc, nextPC)
	case isa.ClassJumpIndirect:
		w.btb.Train(pc, nextPC)
	case isa.ClassRet:
		w.ras.Pop()
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
	ws.Pred = wp.pred.State()
	ws.BTB = wp.btb.State()
	ws.RAS = wp.ras.State()
	ws.CHT = wp.cht.State()
	ws.Mem = wp.hier.WarmState()
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
// window boot's to set). Diagnostic tallies restart at zero and the
// hierarchy's transient timing state is emptied, so a reused set is
// indistinguishable from a freshly built one.
func (wp *warmParts) setState(ws WarmSnapshot) error {
	if err := wp.pred.SetState(ws.Pred); err != nil {
		return err
	}
	wp.pred.Lookups = 0
	if err := wp.btb.SetState(ws.BTB); err != nil {
		return err
	}
	wp.btb.Lookups, wp.btb.Hits = 0, 0
	if err := wp.ras.SetState(ws.RAS); err != nil {
		return err
	}
	if err := wp.cht.SetState(ws.CHT); err != nil {
		return err
	}
	wp.cht.Lookups, wp.cht.Hits, wp.cht.Trained = 0, 0, 0
	if err := wp.hier.SetWarmState(ws.Mem); err != nil {
		return err
	}
	wp.hier.ResetTransient()
	return nil
}

// copyFrom overwrites the set's tables with src's behavioral state
// without allocating (the LISP is the window boot's to set); the
// CopyFrom primitives zero every diagnostic tally and reset the
// transient timing parts, so the copy is indistinguishable from fresh
// clones of src. Both sets must share one geometry.
func (wp *warmParts) copyFrom(src *warmParts) error {
	if err := wp.pred.CopyFrom(src.pred); err != nil {
		return err
	}
	if err := wp.btb.CopyFrom(src.btb); err != nil {
		return err
	}
	if err := wp.ras.CopyFrom(src.ras); err != nil {
		return err
	}
	if err := wp.cht.CopyFrom(src.cht); err != nil {
		return err
	}
	return wp.hier.CopyWarmFrom(src.hier)
}
