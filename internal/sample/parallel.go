package sample

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the sampled engine's window coordinator: it pulls the
// run's window boundaries from a source (warmpass.go) — the live warm
// pass, or stored boundaries — and schedules each boundary's detail
// window onto an Executor (executor.go): the in-process work-stealing
// pool by default, a cross-process worker fleet (procexec) when
// configured.
//
// The only cross-window dependency is the DIVA feedback chain: window
// j+1 must boot with window j's final LISP state. The coordinator runs
// the chain speculatively — it keeps up to the executor's width of
// windows in flight, each dispatched with the feedback known at its
// dispatch time, and settles strictly in index order; a settled window
// whose actual feedback diverges from the next window's speculative
// boot cancels every in-flight successor, which re-dispatch under the
// corrected chain. The window right after a settle always boots with
// validated feedback, so the coordinator always makes progress,
// degrades to one window at a time under a feedback chain that mutates
// every window, and reaches full parallelism on the common quiescent
// chain — while the aggregate stays bit-identical to running the
// windows one by one in every case.
//
// Because fetching, dispatch and settlement all happen on the
// coordinator goroutine and window results depend only on their boot
// inputs, the dispatch/settle interleaving — and with it the
// dispatched and discarded counts — is deterministic for a given run,
// regardless of which executor, how many slots, or how many competing
// cells execute the windows.

// outcome is one in-flight window's delivery from its executor
// goroutine.
type outcome struct {
	res WindowResult
	err error
}

// inflight tracks one dispatched window on the coordinator: its job,
// whose feedback is the LISP guess it booted with (for feedback
// validation and the checkpoint rewrite), the cancel releasing its job
// context, and the buffered delivery channel its executor goroutine
// writes exactly once.
type inflight struct {
	job    WindowJob
	cancel context.CancelFunc
	out    chan outcome
}

// runParallel runs every boundary src yields as a detail window on an
// Executor — sc.Executor when set, otherwise the in-process pool (the
// run's own Config.Scheduler, or an ephemeral one-slot pool) —
// returning WindowStats in index order. The boundaries must be the
// run's windows 0, 1, 2, ... without gaps: window 0 boots with its
// boundary's own LISP, every later one with the chained feedback,
// whatever LISP its boundary stored.
func runParallel(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config, src *source) ([]WindowStat, error) {
	sp := sc.Sampling
	exec := sc.Executor
	if exec == nil {
		sched := sc.Scheduler
		if sched == nil {
			sched = NewScheduler(1)
			defer sched.Close()
		}
		exec = newPoolExecutor(sched, &sc.Hooks)
	}
	// The in-process pool boots windows straight from a live entry's
	// tables. Any other executor, and any run that writes checkpoints,
	// gets self-contained snapshots: those bytes leave the process.
	_, local := exec.(*poolExecutor)
	lend := local && sc.CheckpointDir == ""
	depth := max(exec.Width(), 1)
	var frames []frame      // fetched boundaries, by window index
	var flights []*inflight // in-flight windows, by window index
	var exhausted bool      // src has no boundaries beyond frames
	// No goroutine outlives the run: every exit path waits for each
	// window's executor goroutine (released by the cancel below, so the
	// wait is short), and only then may the deferred Close of an
	// ephemeral pool run — a straggler can never submit to a closed pool.
	var running sync.WaitGroup
	defer running.Wait()
	// Cancel whatever is still in flight on every exit path, so an error
	// (or ctx cancellation) never leaves this run's jobs occupying a
	// shared executor.
	defer func() {
		for _, f := range flights {
			if f != nil {
				f.cancel()
			}
		}
	}()
	var windows []WindowStat
	// Feedback only chains when the integration policy is on: with it
	// off the boot LISP is ignored by every window, so speculation is
	// vacuously correct and validation is skipped.
	chain := cfg.Policy.Enable
	// Adopted feedback, once the first window has settled (haveFB);
	// until then windows boot with their boundary's own (warm-pass) LISP.
	var fb core.LISPState
	var haveFB bool

	// dispatch starts window j; validated says its boot feedback is
	// final (every earlier window has settled), so nothing can ever
	// discard it.
	dispatch := func(j int, validated bool) {
		f := frames[j]
		guess := f.b.Warm.LISP
		if haveFB {
			guess = fb
		}
		if sc.Hooks.WindowScheduled != nil {
			sc.Hooks.WindowScheduled(f.b.Index)
		}
		jctx, cancel := context.WithCancel(ctx)
		fl := &inflight{cancel: cancel, out: make(chan outcome, 1),
			job: WindowJob{Prog: p, Config: cfg, Sampling: sp, Boundary: *f.b, Feedback: guess}}
		if f.entry != nil {
			if lend {
				// A validated window boots on the entry's tables
				// themselves; a speculative one may be re-dispatched, so
				// it boots on a copy and leaves the entry pristine.
				fl.job.live, fl.job.own = &f.entry.parts, validated
			} else {
				// Self-contained: the entry's boundary carries the LISP
				// and touch cursor; add a snapshot of its tables.
				f.entry.parts.snapshot(&fl.job.Boundary.Warm)
			}
		}
		running.Add(1)
		go func() {
			defer running.Done()
			res, err := exec.Run(jctx, fl.job)
			fl.out <- outcome{res: res, err: err}
		}()
		flights[j] = fl
	}

	next := 0 // next window index to dispatch
	for i := 0; ; i++ {
		// Keep the speculation window full: everything from the settle
		// cursor out to the executor's width is in flight.
		for next < i+depth {
			if next == len(frames) {
				f, ok, err := src.fetch(next)
				if err != nil {
					return windows, err
				}
				if exhausted = !ok; exhausted {
					break
				}
				frames, flights = append(frames, f), append(flights, nil)
			}
			dispatch(next, next == i)
			next++
		}
		// Look ahead to the next boundary while the windows run: the
		// fast-forward overlaps them, and the run learns the moment it
		// has dispatched its last window.
		if next == len(frames) && !exhausted {
			ok, err := src.peek(next)
			if err != nil {
				return windows, err
			}
			exhausted = !ok
		}
		if i == next {
			return windows, nil // nothing in flight: every window settled
		}
		fl := flights[i]
		flights[i] = nil
		o := <-fl.out
		fl.cancel() // settled: release the job context
		f := frames[i]
		b := f.b
		if o.err != nil {
			if ctx.Err() != nil && o.err == ctx.Err() {
				return windows, o.err
			}
			return windows, fmt.Errorf("sample: window %d of %s: %w", b.Index, p.Name, o.err)
		}
		ws := WindowStat{
			Index:        b.Index,
			Start:        b.Start,
			MeasuredFrom: b.Start + sp.Warmup,
			Stats:        o.res.Stats,
		}
		windows = append(windows, ws)
		if sc.Hooks.WindowDone != nil {
			sc.Hooks.WindowDone(ws)
		}
		if exhausted && next == len(frames) && sc.Hooks.SlotReturned != nil {
			// The run has dispatched its last window: each settle from
			// here on shrinks its in-flight set, releasing one executor
			// slot to whatever cells are still dispatching.
			sc.Hooks.SlotReturned(b.Index)
		}
		if sc.CheckpointDir != "" {
			// Authoritative rewrite of the provisional warm-pass
			// checkpoint: the boot feedback replaces the warm-pass LISP.
			rb := fl.job.Boundary
			rb.Warm.LISP = fl.job.Feedback
			path, err := saveBoundary(&sc, p, rb, false)
			if err != nil {
				return windows, err
			}
			if sc.Hooks.CheckpointWritten != nil {
				sc.Hooks.CheckpointWritten(path, b.Index)
			}
		}
		if f.entry != nil {
			src.free = append(src.free, f.entry) // the window let go of its boundary
		}
		if !chain {
			continue
		}
		fb, haveFB = o.res.Feedback, true
		if i+1 == next {
			continue
		}
		if g := flights[i+1].job.Feedback; fb.Tick != g.Tick || !slices.Equal(fb.Entries, g.Entries) {
			// Misspeculation: every in-flight successor booted with a
			// chain this settle just invalidated. Cancel them, wait for
			// their executors to let go of their boundaries, and pull the
			// dispatch cursor back, so the next settle iteration
			// re-dispatches under the corrected feedback.
			for k := i + 1; k < next; k++ {
				flights[k].cancel()
			}
			for k := i + 1; k < next; k++ {
				<-flights[k].out
				flights[k] = nil
				if sc.Hooks.WindowDiscarded != nil {
					sc.Hooks.WindowDiscarded(frames[k].b.Index)
				}
			}
			next = i + 1
		}
	}
}
