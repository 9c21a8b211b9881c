package sample

import (
	"context"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the seam between the sampled engine's scheduling layer
// and its execution layer. The coordinator (parallel.go) owns *what*
// runs — dispatch order, index-ordered settlement, feedback validation,
// discard-and-re-dispatch — and an Executor owns *how* one window runs:
// on the in-process work-stealing pool (poolExecutor, the default) or
// on cooperating worker processes sharing a cache directory
// (procexec.Coordinator). Because a window's result depends only on its
// WindowJob, swapping executors can never change the estimate — the
// bit-identity tests pin this for both implementations.

// WindowJob is one detail window as pure data: everything an executor —
// in this process or another one — needs to produce the window's
// measurement. The boundary snapshot carries the emulator state and
// warm microarchitectural state at the window's detailed start;
// Feedback is the LISP state the window boots with (the coordinator's
// speculative chain guess), overriding the snapshot's own warm-pass
// LISP.
type WindowJob struct {
	Prog     *prog.Program
	Config   pipeline.Config
	Sampling Sampling
	Boundary Boundary
	Feedback core.LISPState

	// live, set only on jobs the coordinator hands the in-process pool
	// in a run that writes no checkpoints, holds the boundary's warm
	// tables in place of Boundary.Warm's: the live warm pass's ring
	// entry, lent until the job's Run returns. The window boots on a
	// copy of them, or — own, for a window nothing can discard — on the
	// tables themselves.
	live *warmParts
	own  bool
}

// WindowResult is one executed window's output: the measured statistics
// and the window's final LISP state — the next window's boot
// requirement, which the coordinator validates against its speculative
// chain.
type WindowResult struct {
	Index    int
	Stats    pipeline.Stats
	Feedback core.LISPState
}

// Executor runs detail windows for the sampled engine's coordinator.
//
// Run executes one window to completion and must honor ctx: the
// coordinator cancels a job's context when an earlier settle
// invalidates its boot feedback (the result is discarded unread), so a
// blocked Run would stall the corrected re-dispatch. Run must not read
// the job after it returns: the coordinator refills the boundary's
// pooled storage once every Run that used it has returned. Width is the
// executor's concurrency capability — the coordinator keeps up to
// Width windows in flight, so it doubles as the speculation depth.
//
// Run is called from one goroutine per in-flight window and must be
// safe for concurrent use. Implementations must be deterministic
// functions of the WindowJob: the coordinator's bit-identity guarantee
// assumes a window's result depends only on its boot inputs.
type Executor interface {
	Run(ctx context.Context, job WindowJob) (WindowResult, error)
	Width() int
}

// ExecuteWindow runs one window job locally on a fresh slot — the
// execution primitive behind every executor that does not hold pooled
// scheduler slots (the cross-process worker mode most of all). A fresh
// slot's boot builds the same structures a pooled slot restores in
// place, so the result is bit-identical to the pooled path's: the
// checkpoint-parity tests pin fresh-boot and pooled-boot execution to
// the same bytes.
func ExecuteWindow(ctx context.Context, job WindowJob) (WindowResult, error) {
	return new(slot).run(ctx, job)
}

// poolExecutor adapts the in-process work-stealing Scheduler to the
// Executor interface: Run submits one schedTask into the shared queue
// and waits for its result, or withdraws it on the job's cancellation.
// All jobs from one sampled run share a cellTag, so cross-cell slot
// handoffs keep firing SlotStolen exactly as before the executor split.
type poolExecutor struct {
	sched *Scheduler
	cell  *cellTag
}

func newPoolExecutor(sched *Scheduler, hooks *Hooks) *poolExecutor {
	return &poolExecutor{sched: sched, cell: &cellTag{hooks: hooks}}
}

func (x *poolExecutor) Width() int { return x.sched.Size() }

func (x *poolExecutor) Run(ctx context.Context, job WindowJob) (WindowResult, error) {
	if err := ctx.Err(); err != nil {
		return WindowResult{}, err // discarded before submission: no task queued
	}
	t := &schedTask{cell: x.cell, ctx: ctx, job: job, out: make(chan outcome, 1)}
	if err := x.sched.submit(t); err != nil {
		return WindowResult{}, err
	}
	select {
	case o := <-t.out:
		return o.res, o.err
	case <-ctx.Done():
		// Cancelled while still queued: withdraw the task, and no worker
		// will ever touch it. A worker already running it aborts at the
		// pipeline's next poll boundary; wait for that, so the job is
		// never read after Run returns.
		if !t.claimed.CompareAndSwap(false, true) {
			<-t.out
		}
		return WindowResult{}, ctx.Err()
	}
}
