package sample

import (
	"context"
	"fmt"
	"sync"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the second phase of the two-phase engine: the cell-side
// coordinator that schedules a detail-window run onto an Executor
// (executor.go) — the in-process work-stealing pool by default, a
// cross-process worker fleet (procexec) when configured.
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
// degrades to sequential execution under a feedback chain that mutates
// every window, and reaches full parallelism on the common quiescent
// chain — while the aggregate stays bit-identical to the sequential
// engine in every case.
//
// Because dispatch and settlement both happen on the coordinator
// goroutine and window results depend only on their boot inputs, the
// dispatch/settle interleaving — and with it the dispatched and
// discarded counts — is deterministic for a given run, regardless of
// which executor, how many slots, or how many competing cells execute
// the windows.

// runTwoPhase is Run's two-phase path: warm pass (or cache hit /
// injected warm set), then the scheduled window phase, then the same
// deterministic index-ordered aggregation as the sequential engine.
func runTwoPhase(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	set, err := prepareWarm(ctx, p, cfg, sc)
	if err != nil {
		return nil, err
	}
	if set.Total > sc.MaxInstrs {
		// The sequential fast-forward would have tripped its budget
		// before the program halted; a cached warm set must not bypass
		// the bound.
		return nil, fmt.Errorf("sample: %s did not halt within %d instructions", p.Name, sc.MaxInstrs)
	}
	windows, _, err := runParallel(ctx, p, cfg, sc, set)
	if err != nil {
		return nil, err
	}
	total := uint64(dynLen)
	if total == 0 {
		total = set.Total
	}
	return aggregate(sc.Sampling, detailPad(cfg), windows, total), nil
}

// outcome is one in-flight window's delivery from its executor
// goroutine.
type outcome struct {
	res WindowResult
	err error
}

// inflight tracks one dispatched window on the coordinator: the LISP
// guess it booted with (for feedback validation and the checkpoint
// rewrite), the cancel releasing its job context, and the buffered
// delivery channel its executor goroutine writes exactly once.
type inflight struct {
	guess  core.LISPState
	cancel context.CancelFunc
	out    chan outcome
}

// runParallel schedules every boundary's detail window onto an Executor
// — sc.Executor when set, otherwise the in-process pool (the run's own
// Config.Scheduler, or an ephemeral one-slot pool) — returning
// WindowStats in index order and the last settled window's final LISP
// (nil when no window settled or the policy does not chain feedback).
// The boundaries must be the run's windows 0..n-1 without gaps: window
// 0 boots with its boundary's own LISP, every later one with the chained
// feedback, whatever LISP its boundary stored.
func runParallel(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config, set *WarmSet) ([]WindowStat, *core.LISPState, error) {
	sp := sc.Sampling
	nb := len(set.Boundaries)
	if nb == 0 {
		return nil, nil, nil
	}
	exec := sc.Executor
	if exec == nil {
		sched := sc.Scheduler
		if sched == nil {
			sched = NewScheduler(1)
			defer sched.Close()
		}
		exec = newPoolExecutor(sched, &sc.Hooks)
	}
	depth := exec.Width()
	if depth < 1 {
		depth = 1
	}
	if depth > nb {
		depth = nb
	}
	flights := make([]*inflight, nb)
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
	// Adopted feedback: nil until the first window settles, meaning
	// "boot with the boundary snapshot's own (warm-pass) LISP" — which
	// is exactly what the sequential engine's first window boots with.
	var fb *core.LISPState

	dispatch := func(j int) {
		b := &set.Boundaries[j]
		guess := b.Warm.LISP
		if fb != nil {
			guess = *fb
		}
		if sc.Hooks.WindowScheduled != nil {
			sc.Hooks.WindowScheduled(b.Index)
		}
		jctx, cancel := context.WithCancel(ctx)
		fl := &inflight{guess: guess, cancel: cancel, out: make(chan outcome, 1)}
		job := WindowJob{Prog: p, Config: cfg, Sampling: sp, Boundary: *b, Feedback: guess}
		running.Add(1)
		go func() {
			defer running.Done()
			res, err := exec.Run(jctx, job)
			fl.out <- outcome{res: res, err: err}
		}()
		flights[j] = fl
	}

	next := 0 // next window index to dispatch
	for i := 0; i < nb; i++ {
		// Keep the speculation window full: everything from the settle
		// cursor out to the executor's width is in flight.
		for next < nb && next < i+depth {
			dispatch(next)
			next++
		}
		fl := flights[i]
		flights[i] = nil
		o := <-fl.out
		fl.cancel() // settled: release the job context
		b := &set.Boundaries[i]
		if o.err != nil {
			if ctx.Err() != nil && o.err == ctx.Err() {
				return windows, nil, o.err
			}
			return windows, nil, fmt.Errorf("sample: window %d of %s: %w", b.Index, p.Name, o.err)
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
		if next == nb && sc.Hooks.SlotReturned != nil {
			// The run has dispatched its last window: each settle from
			// here on shrinks its in-flight set, releasing one executor
			// slot to whatever cells are still dispatching.
			sc.Hooks.SlotReturned(b.Index)
		}
		if sc.CheckpointDir != "" {
			// Authoritative rewrite of the provisional warm-pass
			// checkpoint: the boot feedback replaces the warm-pass
			// LISP, converging on the exact bytes the sequential
			// engine writes for this boundary.
			rb := *b
			rb.Warm.LISP = fl.guess
			path, err := saveBoundary(&sc, p, rb, false)
			if err != nil {
				return windows, nil, err
			}
			if sc.Hooks.CheckpointWritten != nil {
				sc.Hooks.CheckpointWritten(path, b.Index)
			}
		}
		if !chain {
			continue
		}
		fbNext := o.res.Feedback
		fb = &fbNext
		if i+1 < next && !lispStateEqual(fbNext, flights[i+1].guess) {
			// Misspeculation: every in-flight successor booted with a
			// chain this settle just invalidated. Cancel them and pull
			// the dispatch cursor back, so the next settle iteration
			// re-dispatches under the corrected feedback.
			for k := i + 1; k < next; k++ {
				flights[k].cancel()
				flights[k] = nil
				if sc.Hooks.WindowDiscarded != nil {
					sc.Hooks.WindowDiscarded(set.Boundaries[k].Index)
				}
			}
			next = i + 1
		}
	}
	return windows, fb, nil
}

// lispStateEqual reports whether two serialized LISP states are
// identical — the feedback-speculation validation predicate.
func lispStateEqual(a, b core.LISPState) bool {
	if a.Tick != b.Tick || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}
