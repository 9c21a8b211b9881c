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
// on a slot of the in-process pool (Scheduler, the default) or on
// cooperating worker processes sharing a worker directory
// (procexec.Coordinator), whose workers run it on a pool of their own.
// The coordinator never asks which one it has. Because a window's
// result depends only on its WindowJob, swapping executors can never
// change the estimate — the bit-identity tests pin this for both
// implementations.

// WindowJob is one detail window as pure data: everything an executor —
// in this process or another one — needs to produce the window's
// measurement. The boundary snapshot carries the emulator state and
// warm microarchitectural state at the window's detailed start;
// Feedback is the LISP state the window boots with (the coordinator's
// speculative chain guess), empty for a cold LISP.
type WindowJob struct {
	Prog     *prog.Program
	Config   pipeline.Config
	Sampling Sampling
	Boundary Boundary
	Feedback core.LISPState

	// live, set on jobs whose boundary is a live warm pass's ring entry,
	// holds the boundary's warm tables in place of Boundary.Warm's: the
	// entry's own, lent until the job's Run returns. The window boots on
	// a copy of them, or — own, for a window nothing can discard — on
	// the tables themselves. Detached replaces them with a snapshot.
	live *warmParts
	own  bool
}

// Detached returns the job self-contained: a job that borrows a live
// ring entry's tables gets a snapshot of them in Boundary.Warm, so it
// can leave the process (gob-encode, write to disk). Any other job is
// returned unchanged. An executor that ships jobs out of the process
// calls it from Run, while the tables are still lent.
func (j WindowJob) Detached() WindowJob {
	if j.live != nil {
		j.live.snapshot(&j.Boundary.Warm)
		j.live, j.own = nil, false
	}
	return j
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
