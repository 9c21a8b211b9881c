package sample

import (
	"context"
	"sync/atomic"

	"rix/internal/emu"
	"rix/internal/pipeline"
)

// slot is one Scheduler slot's private state: a pooled set of boot
// structures plus the last pipeline it finished, reused across every
// window (and every cell) it runs. Every boot restores the set in full
// — by copy from a ring entry or from the boundary's snapshot — and the
// new pipeline resets whatever it adopts from the finished one, so
// whichever set and pipeline a slot holds, every window boots
// bit-identically.
type slot struct {
	parts *warmParts         // nil until the first boot that needs its own set
	prev  *pipeline.Pipeline // the last window's pipeline, kept only if it finished
}

// boot builds the job's window pipeline over src on the boundary's warm
// tables — the live ring entry's when the job owns them, else the
// slot's set (drawn from the pool when the slot has never served cfg's
// geometry), copied from the entry or restored from the boundary's
// snapshot — taking over the slot's last finished pipeline for parts,
// and seeds its LISP with the job's feedback.
func (sl *slot) boot(cfg pipeline.Config, src emu.TraceSource, job *WindowJob) (*pipeline.Pipeline, error) {
	wp := job.live
	if !job.own {
		if sl.parts == nil || sl.parts.geom != geomOf(cfg) {
			sl.release()
			sl.parts = getParts(cfg)
		}
		wp = sl.parts
		var err error
		if job.live != nil {
			bootCopies.Add(1)
			err = wp.copyFrom(job.live)
		} else {
			err = wp.setState(job.Boundary.Warm)
		}
		if err != nil {
			return nil, err
		}
	}
	st := &job.Boundary.Emu
	mem, err := emu.NewMemoryFromState(st.Mem)
	if err != nil {
		return nil, err
	}
	// The new pipeline owns the finished one from here: a window that
	// fails or is cancelled leaves the slot nothing to adopt.
	prev := sl.prev
	sl.prev = nil
	pl := pipeline.NewFrom(cfg, job.Prog, src, &pipeline.BootState{
		PC: st.PC, Regs: st.Regs, Mem: mem, Warm: wp.Warm, Prev: prev,
	})
	// The feedback is the boot LISP; with none, or where nothing chains
	// it, the window boots the cold LISP NewFrom built.
	if chainsFeedback(cfg.Policy) && len(job.Feedback.Entries) > 0 {
		if err := pl.Integrator().LISP.SetState(job.Feedback); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// run executes one detail window job on the slot — the one window
// runner, reached only through Scheduler.Run. The window span is
// re-derived from the boundary's emulator state (emu.ResumeStream), so
// a window's result depends only on its job: the checkpoint-parity
// tests pin it to the naive sequential loop's in-memory record replay.
func (sl *slot) run(ctx context.Context, job WindowJob) (WindowResult, error) {
	cfg, sp, b := job.Config, job.Sampling, &job.Boundary
	if err := sp.Validate(); err != nil {
		return WindowResult{}, err
	}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	src, err := emu.ResumeStream(job.Prog, b.Emu, b.Emu.Count+n+1)
	if err != nil {
		return WindowResult{}, err
	}
	pl, err := sl.boot(cfg, emu.Limit(src, n), &job)
	if err != nil {
		return WindowResult{}, err
	}
	stats, err := pl.RunWindowContext(ctx, sp.Warmup, sp.Window)
	if err != nil {
		return WindowResult{}, err
	}
	sl.prev = pl
	res := WindowResult{Index: b.Index, Stats: *stats}
	if chainsFeedback(cfg.Policy) {
		// A LISP the window neither trained nor reordered still holds
		// the feedback it booted with (SetState copies it verbatim, and
		// empty feedback boots it cold), so that is the result: no
		// snapshot.
		res.Feedback = job.Feedback
		if lisp := pl.Integrator().LISP; lisp.Changed() {
			res.Feedback = lisp.State()
		}
	}
	return res, nil
}

// bootCopies counts the boots that copied a ring entry's tables into a
// slot's own set, for the boot tests.
var bootCopies atomic.Int64

// release hands the slot's set back to the pool; the slot must not be
// running a window.
func (sl *slot) release() {
	if sl.parts != nil {
		putParts(sl.parts)
		sl.parts = nil
	}
}
