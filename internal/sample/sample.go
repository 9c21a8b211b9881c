// Package sample is the checkpointed interval-sampling engine: it makes
// long workloads tractable by simulating only periodic measurement
// windows in full detail and fast-forwarding functionally in between.
//
// A sampled run interleaves three modes over the dynamic instruction
// stream:
//
//   - Functional fast-forward: the architectural emulator executes every
//     instruction, and a warmer folds each one into the long-lived
//     microarchitectural state (caches, TLBs, branch predictors, BTB,
//     return-address stack). This costs tens of nanoseconds per
//     instruction instead of the detailed pipeline's microsecond.
//
//   - Detailed warmup: at each window boundary the detailed pipeline
//     boots from the emulator's architectural state plus a clone of the
//     warm state, and runs Warmup instructions with statistics gated off.
//     This warms the state functional execution cannot: the integration
//     table and LISP (whose entries name physical registers that exist
//     only inside one pipeline), the register file, and in-flight
//     structure occupancy.
//
//   - Measurement: the next Window instructions run in full detail and
//     their pipeline.Stats delta is recorded.
//
// Per-window measurements aggregate into an Estimate with approximate
// 95% confidence half-widths on IPC and integration rate; the
// sampled-vs-full accuracy bounds the engine is tuned to are
// IPCErrBound and RateErrBound, enforced by this package's tests.
//
// # One engine: a warm pass feeding a window coordinator
//
// Every run — Run or Continue — is one window coordinator pulling
// window boundaries from a source. The live source is the warm pass
// itself: one fast-forward over the trace, in index order, that stops
// at each boundary and copies the emulator and warm state into a small
// ring of pooled entries, at most one per window in flight. A
// materialized source serves stored boundaries instead: an injected
// warm set (Config.Warm, built by PrepareWarm), a cache hit
// (Config.CacheDir), or the checkpoints Continue reads. The
// coordinator runs each boundary's detail window on Config.Scheduler —
// a shared pool, cross-process workers, or a one-slot pool of its own
// by default — and the executor's width is how many windows it keeps in
// flight. The chained LISP feedback is the only cross-window
// dependency, so windows dispatch speculatively: each settles in index
// order, and a misspeculated feedback guess discards its in-flight
// successors for re-dispatch. The Estimate is therefore bit-identical
// at every width, and to running the windows one by one, while the
// common quiescent chain reaches full parallelism.
//
// When Config.CheckpointDir is set, the run serializes one Checkpoint
// (emulator + warm state) per window boundary, once, as the coordinator
// hands the boundary to its window; Continue finishes the run from disk
// — bit-identical to the direct run, re-chaining the LISP feedback from
// window 0 — after an interruption, or re-measures a completed set.
//
// Config.CacheDir names a content-addressed warm-set cache: the warm
// pass's output is keyed by a SHA-256 over the program content, window
// layout, drain pad, warm-relevant machine geometry, and the encoding
// format versions, so a repeat run skips fast-forward entirely and any
// invalidating change is a clean miss. Loads are best-effort (corrupt
// or mismatched entries are misses that get rewritten); saves are
// atomic.
//
// Every run accepts a context.Context, checked at batched boundaries
// (cancelCheckInterval instructions of fast-forward, every poll interval
// of detailed simulation). A cancelled checkpointing run leaves the
// checkpoint of every window it dispatched, so Continue can later
// finish the run with stats bit-identical to an uninterrupted one.
package sample

import (
	"context"
	"fmt"
	"math"

	"rix/internal/pipeline"
	"rix/internal/prog"
)

// Documented accuracy bounds: on the benchmark workloads under every
// integration preset and suppression mode, a default-knob sampled run's
// headline metrics stay within these bounds of the full-detail run. The
// property test in this package enforces them; the worst observed
// errors are ~7.3% relative IPC (a phase-composition artifact on the
// call-rich workloads' short traces — the sampled windows' predictor
// and cache state match the full machine's bit-for-bit) and ~0.7
// points of integration rate.
const (
	// IPCErrBound bounds |IPC_sampled - IPC_full| / IPC_full.
	IPCErrBound = 0.09
	// RateErrBound bounds |rate_sampled - rate_full| (absolute, where
	// rate is the integration rate in [0,1]).
	RateErrBound = 0.015
)

// DefaultMaxInstrs bounds the functional fast-forward, mirroring
// workload.MaxInstrs: every benchmark must halt well within it.
const DefaultMaxInstrs = 1 << 24

// cancelCheckInterval is how many fast-forwarded instructions pass
// between context polls. A power of two, so the check compiles to a
// mask; at emulator speed (tens of ns/instr) cancellation is detected
// within well under a millisecond.
const cancelCheckInterval = 1 << 12

// Hooks are optional run observation callbacks. They exist so higher
// layers (internal/run) can surface typed progress events without this
// package knowing about them; nil fields are skipped. Every hook fires
// synchronously from the goroutine that called Run or Continue, so the
// hook sequence of a run is deterministic.
type Hooks struct {
	// Progress reports the dynamic instruction count reached by the
	// functional fast-forward, at cancelCheckInterval granularity.
	Progress func(instrs uint64)
	// WindowScheduled fires when the coordinator dispatches a window to
	// its executor (in dispatch order; re-dispatch after a feedback
	// misspeculation fires again).
	WindowScheduled func(index int)
	// WindowDone fires after each measurement window completes, in
	// window index order, as the coordinator settles it (never for a
	// discarded speculative run).
	WindowDone func(w WindowStat)
	// WindowDiscarded fires when a speculatively dispatched window is
	// cancelled because an earlier window settled with feedback that
	// invalidated its boot guess; the window re-dispatches under the
	// corrected chain. Fires from the coordinating goroutine, so the
	// dispatch/discard sequence is deterministic for a given run.
	WindowDiscarded func(index int)
	// SlotReturned fires once per window settled after this run has
	// dispatched its last one — each such settle shrinks the run's
	// in-flight set, releasing a pool slot to cells still dispatching.
	// Fires from the coordinating goroutine, deterministically.
	SlotReturned func(index int)
	// WarmPassStarted fires when a warm pass starts from the program
	// entry — feeding the coordinator, or drained into a warm set by
	// PrepareWarm or a cache miss — never on a cache hit, an injected
	// warm set, or Continue's resumed pass.
	WarmPassStarted func()
	// WarmPassDone fires when that warm pass has reached every
	// boundary, with the last boundary's dynamic instruction (0 when
	// the trace has none).
	WarmPassDone func(last uint64)
	// CheckpointWritten fires after each checkpoint lands on disk: as
	// the coordinator fetches the window's boundary, before the window
	// is dispatched, in window index order.
	CheckpointWritten func(path string, index int)
	// CacheHit fires when a warm pass is skipped because the
	// content-addressed cache (Config.CacheDir) held a valid warm set.
	CacheHit func(path string)
	// CacheWritten fires after a freshly built warm set lands in the
	// cache.
	CacheWritten func(path string)
}

// Config configures a sampled run.
type Config struct {
	// Sampling is the window layout; the zero value selects
	// DefaultSampling().
	Sampling Sampling

	// CheckpointDir, when non-empty, persists one Checkpoint per window
	// boundary (atomically, named <program>-w<index>.ckpt) as the run
	// proceeds, whatever the boundaries' source: the warm pass, an
	// injected warm set, or the cache.
	CheckpointDir string

	// CacheDir, when non-empty, backs the warm pass with an on-disk
	// content-addressed cache: the warm set is keyed by program content,
	// window layout, warm-relevant machine geometry, and format
	// versions, so a repeat run skips the warm pass entirely and an
	// invalidating change (different binary, layout, geometry, or
	// format) is a clean miss, never a stale hit. A miss drains the warm
	// pass into a set and saves it before the windows run.
	CacheDir string

	// Warm injects a pre-built warm set (PrepareWarm), skipping both
	// the warm pass and the cache probe. The set is read-only during
	// the run and may be shared by concurrent runs.
	Warm *WarmSet

	// Scheduler runs the detail windows, Run's and Continue's alike: a
	// shared in-process pool (*Scheduler), cross-process workers
	// (procexec.Coordinator), or any other Executor; nil gives the run
	// an ephemeral one-slot pool. Its Width is the run's speculation
	// depth, and the estimate is bit-identical whichever executor runs
	// the windows — see Executor's determinism contract. Concurrent runs
	// may share one Scheduler: a run that settles early stops
	// submitting, and its slots immediately serve the runs still
	// dispatching. The caller owns the executor and must release it
	// (Scheduler.Close) only after every run sharing it has returned.
	Scheduler Executor

	// MaxInstrs bounds functional execution (default DefaultMaxInstrs).
	MaxInstrs uint64

	// Hooks observe the run; see Hooks.
	Hooks Hooks
}

func (c Config) normalized() (Config, error) {
	if c.Sampling == (Sampling{}) {
		c.Sampling = DefaultSampling()
	}
	if err := c.Sampling.Validate(); err != nil {
		return c, err
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = DefaultMaxInstrs
	}
	return c, nil
}

// Run samples one (program, machine configuration) cell: fast-forward
// with functional warming, detailed windows every Sampling.Interval
// instructions, and aggregation into an Estimate. dynLen is the known
// dynamic instruction count (workload.Built.DynLen); pass 0 if unknown —
// coverage and scaled estimates then use the observed count.
//
// Cancelling ctx ends the run with ctx.Err() within a bounded number of
// instructions; if Config.CheckpointDir is set, every window dispatched
// so far remains checkpointed on disk, so Continue can finish the run
// later.
func Run(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	src, err := openSource(ctx, p, cfg, &sc)
	if err != nil {
		return nil, err
	}
	return src.run(ctx, p, dynLen, cfg, sc)
}

// run executes every boundary's window on the coordinator and
// aggregates them, scaling to dynLen or — when that is 0 — to the
// source's observed instruction count (or, when no source knows it,
// to the windows' coverage).
func (s *source) run(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	if s.e == nil && s.set.Total > sc.MaxInstrs {
		// A live pass would have tripped its budget before the program
		// halted; a stored warm set must not bypass the bound.
		return nil, fmt.Errorf("sample: %s did not halt within %d instructions", p.Name, sc.MaxInstrs)
	}
	windows, err := runParallel(ctx, p, cfg, sc, s)
	s.release()
	if err != nil {
		return nil, err
	}
	total := uint64(dynLen)
	switch {
	case total != 0:
	case s.e != nil:
		total = s.e.Count
	case s.set.Total != 0:
		total = s.set.Total
	default:
		for _, w := range windows {
			total = max(total, w.MeasuredFrom+w.Stats.Retired)
		}
	}
	return aggregate(sc.Sampling, detailPad(cfg), windows, total), nil
}

// seek fast-forwards to dynamic instruction target (or the program's
// halt), polling ctx and firing Progress every cancelCheckInterval
// instructions and enforcing sc.MaxInstrs.
func (s *source) seek(target uint64) error {
	e, w, code, sc := s.e, s.w, s.p.Code, s.sc
	done := s.ctx.Done()
	for end := min(target, sc.MaxInstrs); e.Count < end && !e.Halted; {
		if e.Count&(cancelCheckInterval-1) == 0 {
			if done != nil {
				select {
				case <-done:
					return s.ctx.Err()
				default:
				}
			}
			if sc.Hooks.Progress != nil {
				sc.Hooks.Progress(e.Count)
			}
		}
		pc := e.PC
		rec, err := e.Step()
		if err != nil {
			return fmt.Errorf("sample: fast-forward failed: %w", err)
		}
		w.observe(code[rec.CodeIdx], pc, rec, e.PC)
	}
	if e.Count < target && !e.Halted {
		return fmt.Errorf("sample: %s did not halt within %d instructions", s.p.Name, sc.MaxInstrs)
	}
	return nil
}

// boundary snapshots the pass's position as window idx's boundary.
func (s *source) boundary(idx int) Boundary {
	return Boundary{Index: idx, Start: s.e.Count, Emu: s.e.State(), Warm: s.w.snapshot()}
}

// detailPad is the drain pad fed beyond each measurement boundary so
// the window's tail overlaps with younger instructions exactly as in a
// full run (one in-flight machine's worth).
func detailPad(cfg pipeline.Config) uint64 {
	return uint64(cfg.ROBSize + cfg.FetchQueue + 16)
}

// windowStart places window idx's detailed start: one window per
// Interval, offset inside the interval by a low-discrepancy
// (golden-ratio) sequence. The synthetic workloads are strongly
// periodic, and a fixed stride aliases with their loop periods —
// systematically over- or under-sampling one phase of the loop body;
// the deterministic jitter de-aliases without sacrificing
// reproducibility (resume and sharding stay bit-identical). Window 0
// starts at 0: its cold-boot run doubles as the pilot that reproduces
// the full machine's startup transient.
func windowStart(idx int, sp Sampling) uint64 {
	if idx == 0 {
		return 0
	}
	slack := sp.Interval - sp.Warmup - sp.Window
	if slack == 0 {
		return uint64(idx) * sp.Interval
	}
	const phi = 0.6180339887498949
	f := float64(idx) * phi
	f -= math.Floor(f)
	return uint64(idx)*sp.Interval + uint64(f*float64(slack))
}
