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
// window (and every cell) it runs. Each scheduler worker owns one, and
// ExecuteWindow uses a fresh one per call — a fresh slot's first boot
// allocates exactly the structures a from-scratch boot would, and later
// boots restore them in place, so every path boots windows
// bit-identically.
type slot struct {
	id       int
	lastCell *cellTag // scheduler workers: the cell last served, for steal detection

	geom    bootGeom // the geometry parts was built for; valid once parts.pred != nil
	parts   warmParts
	scratch *pipeline.Scratch
	bs      pipeline.BootState // the boot state last handed to a pipeline
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

// boot readies the job's boundary state — the live ring entry's tables
// when the job owns them, else the slot's pooled set (built fresh when
// the slot has never served cfg's geometry), copied from the entry or
// restored from the boundary's snapshot — with the job's feedback as
// the boot LISP, and returns the window's boot state. The result is
// owned by the next pipeline until it finishes; boot the slot again
// only after that.
func (sl *slot) boot(cfg pipeline.Config, job *WindowJob) (*pipeline.BootState, error) {
	wp := job.live
	if !job.own {
		if g := (bootGeom{Pred: cfg.Pred, Mem: cfg.Mem, LISP: cfg.LISP, Enable: cfg.Policy.Enable}); sl.parts.pred == nil || sl.geom != g {
			sl.geom, sl.parts = g, newWarmParts(cfg)
		}
		wp = &sl.parts
		var err error
		if job.live != nil {
			err = wp.copyFrom(job.live)
		} else {
			err = wp.setState(job.Boundary.Warm)
		}
		if err != nil {
			return nil, err
		}
	}
	// The feedback is the boot LISP; with none, the pipeline starts a
	// cold one.
	var lisp *core.LISP
	if wp.lisp != nil && len(job.Feedback.Entries) > 0 {
		if err := wp.lisp.SetState(job.Feedback); err != nil {
			return nil, err
		}
		wp.lisp.Lookups, wp.lisp.Suppressed, wp.lisp.TrainInsert = 0, 0, 0
		lisp = wp.lisp
	}
	st := &job.Boundary.Emu
	mem, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		return nil, err
	}
	sl.bs = pipeline.BootState{PC: st.PC, Regs: st.Regs, Mem: mem, LISP: lisp,
		Pred: wp.pred, BTB: wp.btb, RAS: wp.ras, CHT: wp.cht, Hier: wp.hier, Scratch: sl.scratch}
	return &sl.bs, nil
}

// run executes one detail window job on the slot — the one window
// runner behind the scheduler's workers, ExecuteWindow and
// RunCheckpoint. The window span is re-derived from the boundary's
// emulator state (emu.ResumeStream), so a window's result depends only
// on its job: the checkpoint-parity tests pin it to the naive
// sequential loop's in-memory record replay.
func (sl *slot) run(ctx context.Context, job WindowJob) (WindowResult, error) {
	p, cfg, sp, b := job.Prog, job.Config, job.Sampling, &job.Boundary
	if err := sp.Validate(); err != nil {
		return WindowResult{}, err
	}
	boot, err := sl.boot(cfg, &job)
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
