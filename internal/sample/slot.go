package sample

import (
	"context"

	"rix/internal/bpred"
	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/memsys"
	"rix/internal/pipeline"
)

// slot is one window executor's private state: a pooled set of boot
// structures plus the recycled pipeline scratch, reused across every
// window (and every cell) it runs. Each scheduler worker owns one, the
// sequential engine owns one per run, and ExecuteWindow uses a fresh
// one per call — a fresh slot's first boot allocates exactly the
// structures a from-scratch boot would, and later boots restore them in
// place, so every path boots windows bit-identically.
type slot struct {
	id       int
	lastCell *cellTag // scheduler workers: the cell last served, for steal detection

	geom    bootGeom // the geometry parts was built for; valid once parts.pred != nil
	parts   warmParts
	scratch *pipeline.Scratch
}

// bootGeom is the machine geometry a pooled boot set was built for.
// A window whose configuration differs in any of these rebuilds the
// slot's structures from scratch; within one cell — and across cells of
// the same machine — the pooled set is restored in place.
type bootGeom struct {
	Pred   bpred.Config
	Mem    memsys.Config
	LISP   core.LISPConfig
	Enable bool
}

// pool makes sure the slot holds boot structures of cfg's geometry,
// building fresh ones when it has never served that geometry.
func (sl *slot) pool(cfg pipeline.Config) {
	g := bootGeom{Pred: cfg.Pred, Mem: cfg.Mem, LISP: cfg.LISP, Enable: cfg.Policy.Enable}
	if sl.parts.pred == nil || sl.geom != g {
		sl.geom, sl.parts = g, newWarmParts(cfg)
	}
}

// boot completes a window's boot state — architectural state and boot
// LISP (nil: the pipeline starts a cold one) set by the caller — with
// the slot's filled structures. The result is owned by the next
// pipeline until it finishes; refill the slot only after that.
func (sl *slot) boot(b pipeline.BootState) *pipeline.BootState {
	wp := &sl.parts
	b.Pred, b.BTB, b.RAS, b.CHT, b.Hier, b.Scratch = wp.pred, wp.btb, wp.ras, wp.cht, wp.hier, sl.scratch
	return &b
}

// fromWarmer fills the slot by direct copies of the live emulator and
// warmer — the sequential engine's in-memory boot.
func (sl *slot) fromWarmer(cfg pipeline.Config, e *emu.Emulator, w *warmer) (*pipeline.BootState, error) {
	sl.pool(cfg)
	if err := sl.parts.copyFrom(&w.warmParts); err != nil {
		return nil, err
	}
	return sl.boot(pipeline.BootState{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone(), LISP: sl.parts.lisp}), nil
}

// bootFrom fills the slot from a boundary's emulator state and warm
// snapshot — the path of every window run from a stored boundary. It
// yields the same state fromWarmer copies from the live structures, so
// a window booted from a checkpoint is bit-identical to the one the
// sequential engine ran directly.
func (sl *slot) bootFrom(cfg pipeline.Config, st emu.State, ws WarmSnapshot) (*pipeline.BootState, error) {
	sl.pool(cfg)
	if err := sl.parts.setState(ws); err != nil {
		return nil, err
	}
	var lisp *core.LISP
	if len(ws.LISP.Entries) > 0 {
		lisp = sl.parts.lisp
	}
	mem, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		return nil, err
	}
	return sl.boot(pipeline.BootState{PC: st.PC, Regs: st.Regs, Mem: mem, LISP: lisp}), nil
}

// run executes one detail window job on the slot — the one window
// runner behind the scheduler's workers, ExecuteWindow and
// RunCheckpoint. The job's feedback replaces the boundary snapshot's
// LISP, and the window span is re-derived from the boundary's emulator
// state (emu.ResumeStream): the path the checkpoint-equivalence tests
// prove bit-identical to the sequential engine's in-memory record
// replay.
func (sl *slot) run(ctx context.Context, job WindowJob) (WindowResult, error) {
	p, cfg, sp, b := job.Prog, job.Config, job.Sampling, &job.Boundary
	if err := sp.Validate(); err != nil {
		return WindowResult{}, err
	}
	warm := b.Warm
	warm.LISP = job.Feedback
	boot, err := sl.bootFrom(cfg, b.Emu, warm)
	if err != nil {
		return WindowResult{}, err
	}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	src, err := emu.ResumeStream(p, b.Emu, b.Emu.Count+n+1)
	if err != nil {
		return WindowResult{}, err
	}
	pl := pipeline.NewFrom(cfg, p, emu.Limit(src, n), boot)
	stats, err := pl.RunWindowContext(ctx, sp.Warmup, sp.Window)
	if err != nil {
		return WindowResult{}, err
	}
	res := WindowResult{Index: b.Index, Stats: *stats, Feedback: pl.Integrator().LISP.State()}
	sl.scratch = pl.Recycle()
	return res, nil
}
