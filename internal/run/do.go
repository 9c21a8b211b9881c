package run

import (
	"context"
	"fmt"
	"time"

	"rix/internal/asm"
	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
	"rix/internal/sample"
	"rix/internal/sample/procexec"
	"rix/internal/workload"
)

// Source supplies built workloads by name. workload.Builder is the
// standard implementation; the runner engine passes its own memoizing
// source so matrix cells share builds.
type Source interface {
	Get(ctx context.Context, name string) (workload.Built, error)
}

// DetailRunner executes one full-detail simulation — the seam the
// engine's tests use to substitute a stub machine. The default
// constructs a pipeline, attaches progress observation, and runs it
// under ctx.
type DetailRunner func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error)

// DefaultProgressInterval is the retired/fast-forwarded instruction
// cadence of Progress events when an Observer is attached.
const DefaultProgressInterval = 1 << 18

// Options collects every per-call execution knob Do accepts beyond the
// serializable Request: live resources (observer, workload source,
// shared scheduler), test seams, and event cadence. The zero value
// selects all defaults. The With* functions below set its fields.
type Options struct {
	// Observer streams the run's typed progress events (nil: none).
	Observer Observer

	// Source resolves workload names (nil: the package registry,
	// memoized across Do calls).
	Source Source

	// DetailRunner substitutes the full-detail execution path — a test
	// seam; sampled modes are unaffected.
	DetailRunner DetailRunner

	// ProgressEvery is the Progress event cadence in instructions
	// (0: DefaultProgressInterval).
	ProgressEvery uint64

	// Scheduler runs a sampled request's detail-window phase on a
	// shared slot pool (see sample.Scheduler) instead of a pool of the
	// run's own: concurrent Do calls passing the same scheduler take
	// each other's free slots, and each slot's pooled boot state is
	// reused across every window it executes. The pool is
	// a live resource, not part of the serializable Request — the
	// request's Jobs field records the intended pool size, and the
	// caller (e.g. the runner engine) owns the scheduler's lifecycle.
	// Ignored for detail runs and for requests that set WorkerDir.
	Scheduler *sample.Scheduler
}

// Option customizes one Do call.
type Option func(*Options)

// WithObserver streams the run's typed progress events to o.
func WithObserver(o Observer) Option {
	return func(c *Options) {
		if o != nil {
			c.Observer = o
		}
	}
}

// WithSource resolves workload names through s instead of the package
// registry.
func WithSource(s Source) Option {
	return func(c *Options) {
		if s != nil {
			c.Source = s
		}
	}
}

// WithProgressEvery sets Options.ProgressEvery (0 keeps the default).
func WithProgressEvery(n uint64) Option {
	return func(c *Options) {
		if n > 0 {
			c.ProgressEvery = n
		}
	}
}

// WithScheduler sets Options.Scheduler; see that field for the sharing
// and ownership contract.
func WithScheduler(s *sample.Scheduler) Option {
	return func(c *Options) {
		if s != nil {
			c.Scheduler = s
		}
	}
}

// WithDetailRunner sets Options.DetailRunner — a test seam; sampled
// modes are unaffected.
func WithDetailRunner(fn DetailRunner) Option {
	return func(c *Options) {
		if fn != nil {
			c.DetailRunner = fn
		}
	}
}

// config is the resolved option set execute works from: Options with
// defaults applied, plus whether a real observer is attached (the
// detail path skips progress instrumentation entirely without one).
type config struct {
	Options
	hasObs bool
}

// defaultSource memoizes registry builds across Do calls (programs and
// validation metadata only; golden traces stream).
var defaultSource = workload.NewBuilder()

// Do executes one request: validate eagerly, resolve the program, route
// by Mode, and return the Result. Cancelling ctx ends the run with
// ctx.Err() within a bounded amount of simulated work at every stage —
// workload build, detailed cycle loop, sampled fast-forward, window
// replay, and checkpoint re-execution.
func Do(ctx context.Context, req Request, opts ...Option) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	c := config{Options: o, hasObs: o.Observer != nil}
	if c.Observer == nil {
		c.Observer = nopObserver{}
	}
	if c.Source == nil {
		c.Source = defaultSource
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = DefaultProgressInterval
	}

	start := time.Now()
	bw, err := resolve(ctx, &c, &req)
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: req.name(), Label: req.ResolvedLabel(), Mode: req.Mode(), DynLen: bw.DynLen}
	ev := Event{Workload: res.Workload, Label: res.Label, Mode: res.Mode}

	ev.Kind = CellStarted
	c.Observer.Observe(ev)
	err = execute(ctx, &c, &req, bw, res, ev)
	ev.Kind = CellFinished
	if err != nil {
		ev.Err = err.Error()
		c.Observer.Observe(ev)
		return nil, err
	}
	ev.Instrs = res.Stats.Retired
	c.Observer.Observe(ev)
	res.Wall = time.Since(start)
	return res, nil
}

// resolve produces the program to simulate: a named workload through the
// source, or inline assembly.
func resolve(ctx context.Context, c *config, req *Request) (workload.Built, error) {
	if req.Workload != "" {
		return c.Source.Get(ctx, req.Workload)
	}
	p, err := asm.Assemble(req.name(), req.Source)
	if err != nil {
		return workload.Built{}, fmt.Errorf("run: assemble %s: %w", req.name(), err)
	}
	return workload.BuiltFromProgram(p, req.MaxInstrs), nil
}

// execute routes the resolved run to its engine and fills in the
// result's statistics.
func execute(ctx context.Context, c *config, req *Request, bw workload.Built, res *Result, ev Event) error {
	cfg, err := req.Options.Config()
	if err != nil {
		return err
	}

	if req.Options.Sampling == nil {
		detail := c.DetailRunner
		if detail == nil {
			detail = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
				pl := pipeline.New(cfg, p, src)
				if c.hasObs {
					pev := ev
					pev.Kind = Progress
					pl.SetProgress(c.ProgressEvery, func(retired uint64) {
						pev.Instrs = retired
						c.Observer.Observe(pev)
					})
				}
				return pl.RunContext(ctx)
			}
		}
		st, err := detail(ctx, cfg, bw.Prog, bw.Source())
		if err != nil {
			return err
		}
		res.Stats = *st
		return nil
	}

	sc := sample.Config{
		Sampling:      *req.Options.Sampling,
		CheckpointDir: req.CheckpointDir,
		CacheDir:      req.CheckpointCache,
		MaxInstrs:     req.MaxInstrs,
	}
	if c.hasObs {
		sc.Hooks = sampleHooks(c, ev)
	}
	// The one place a window executor is chosen. With none of these
	// cases, sc.Scheduler stays nil: a one-slot pool of the run's own.
	switch {
	case req.WorkerDir != "":
		// Window jobs travel through WorkerDir's windows/ subdirectory
		// for `rixsim -worker` processes to claim. Jobs bounds the
		// in-flight dispatches (the coordinator's default otherwise).
		coord, err := procexec.New(req.WorkerDir, procConfig(c, req, ev))
		if err != nil {
			return err
		}
		sc.Scheduler = coord
	case c.Scheduler != nil:
		sc.Scheduler = c.Scheduler
	case req.Jobs > 1:
		// No shared pool injected: this run's windows get a pool of
		// their own, Jobs slots wide, for the run's lifetime.
		sched := sample.NewScheduler(req.Jobs)
		defer sched.Close()
		sc.Scheduler = sched
	}
	// Wave telemetry is part of the Result, observer or not: count
	// discards on top of whatever event hooks are installed (every hook
	// fires from the coordinating goroutine).
	var discarded uint64
	prevDisc := sc.Hooks.WindowDiscarded
	sc.Hooks.WindowDiscarded = func(index int) {
		discarded++
		if prevDisc != nil {
			prevDisc(index)
		}
	}
	var est *sample.Estimate
	if req.Resume {
		est, err = sample.Continue(ctx, bw.Prog, bw.DynLen, cfg, sc)
	} else {
		est, err = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
	}
	if err != nil {
		return err
	}
	res.Stats = est.Agg
	res.Sampled = summarize(est, discarded)
	return nil
}

// procConfig builds the cross-process coordinator configuration for a
// WorkerDir request, adapting its worker-lifecycle callbacks to the
// typed event stream. The callbacks fire from the coordinator's
// per-window collection goroutines — concurrently — so each builds its
// Event as a local value.
func procConfig(c *config, req *Request, ev Event) procexec.Config {
	pc := procexec.Config{Width: req.Jobs}
	if !c.hasObs {
		return pc
	}
	pc.OnWorkerJoined = func(worker string) {
		e := ev
		e.Kind = WorkerJoined
		e.Worker = worker
		c.Observer.Observe(e)
	}
	pc.OnLeaseClaimed = func(job, worker string, window int) {
		e := ev
		e.Kind = LeaseClaimed
		e.Worker = worker
		e.Window = window
		c.Observer.Observe(e)
	}
	pc.OnResultCollected = func(job string, window int, path string) {
		e := ev
		e.Kind = ResultCollected
		e.Window = window
		e.Path = path
		c.Observer.Observe(e)
	}
	return pc
}

// sampleHooks adapts the sampling engine's callbacks to the typed event
// stream. Every hook fires from the run's own goroutine; each builds its
// Event as a local value (window-rate events are far off the hot path,
// so the per-call value is free).
func sampleHooks(c *config, ev Event) sample.Hooks {
	var lastProgress uint64
	every := c.ProgressEvery
	return sample.Hooks{
		Progress: func(instrs uint64) {
			if instrs-lastProgress < every {
				return
			}
			lastProgress = instrs
			e := ev
			e.Kind = Progress
			e.Instrs = instrs
			c.Observer.Observe(e)
		},
		WindowDone: func(w sample.WindowStat) {
			e := ev
			e.Kind = WindowDone
			e.Window = w.Index
			e.Instrs = w.Stats.Retired
			c.Observer.Observe(e)
		},
		CheckpointWritten: func(path string, index int) {
			e := ev
			e.Kind = CheckpointWritten
			e.Window = index
			e.Path = path
			c.Observer.Observe(e)
		},
		WindowScheduled: func(index int) {
			e := ev
			e.Kind = WindowScheduled
			e.Window = index
			c.Observer.Observe(e)
		},
		WindowDiscarded: func(index int) {
			e := ev
			e.Kind = WindowDiscarded
			e.Window = index
			c.Observer.Observe(e)
		},
		WarmShardStarted: func(shard int, start, end uint64) {
			e := ev
			e.Kind = WarmShardStarted
			e.Shard = shard
			e.SpanStart, e.SpanEnd = start, end
			c.Observer.Observe(e)
		},
		WarmShardDone: func(shard int, start, end uint64) {
			e := ev
			e.Kind = WarmShardDone
			e.Shard = shard
			e.SpanStart, e.SpanEnd = start, end
			c.Observer.Observe(e)
		},
		SlotReturned: func(index int) {
			e := ev
			e.Kind = SlotReturned
			e.Window = index
			c.Observer.Observe(e)
		},
		CacheHit: func(path string) {
			e := ev
			e.Kind = CacheHit
			e.Path = path
			c.Observer.Observe(e)
		},
		CacheWritten: func(path string) {
			e := ev
			e.Kind = CacheWritten
			e.Path = path
			c.Observer.Observe(e)
		},
	}
}
