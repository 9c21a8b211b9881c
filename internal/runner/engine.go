package runner

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/stats"
	"rix/internal/workload"
)

// WorkloadSource supplies built workloads to the engine. Get memoizes
// per name and returns a workload.Built whose Source method mints
// independent golden-trace streams; BuildAll warms a name set with
// bounded parallelism, honoring ctx. workload.Builder is the standard
// implementation.
type WorkloadSource interface {
	Get(ctx context.Context, name string) (workload.Built, error)
	BuildAll(ctx context.Context, names []string, parallel int) error
}

// Engine executes specs over a fixed workload set, with every cell
// routed through the unified run API (run.Do): workloads are built
// lazily — in parallel, memoized — the first time a spec (or DynLen/Run)
// needs them, and the (workload x config) cross-product runs through a
// worker pool that acquires its semaphore slot *before* spawning each
// goroutine, so at most Parallel simulations are live at once and memory
// stays bounded. Every entry point takes a context.Context: cancelling
// it stops scheduling new cells and interrupts the in-flight ones at
// their batched poll boundaries.
type Engine struct {
	// Parallel bounds concurrent workload builds and simulations
	// (default NumCPU; values < 1 mean 1).
	Parallel int

	// Observer, when set, receives every cell's typed progress events
	// (cell started/finished, instructions retired, windows completed,
	// checkpoints written). Cells run concurrently, so the observer must
	// be safe for concurrent use.
	Observer run.Observer

	// WindowJobs sizes the shared window-scheduler pool every sampled
	// cell in a Run/Stream/Gather call draws from. 0 (the default) sizes
	// the pool to Parallel: there is no static per-cell split — a cell
	// that settles its speculative waves early simply stops submitting,
	// and its slots immediately execute the windows other cells still
	// have queued (work stealing). Each pool slot reuses one set of boot
	// structures across every window it runs, whatever the cell. 1
	// gives each cell a one-slot pool of its own instead, so cells never
	// queue behind one another's windows.
	WindowJobs int

	// CheckpointCache, when set, is the content-addressed warm-set cache
	// directory passed to every sampled cell: repeat runs of the same
	// (workload, layout, geometry) skip their warm pass entirely.
	CheckpointCache string

	// CacheMaxMB / CacheMaxAgeSec bound CheckpointCache by total size
	// (MiB) and entry age (seconds): each sampled cell's save sweeps
	// least-recently-used entries over the bounds. 0 disables a bound.
	CacheMaxMB     int
	CacheMaxAgeSec int

	// Executor selects how sampled cells execute their detail windows:
	// empty or run.ExecPool keeps them on the shared in-process
	// scheduler pool above; run.ExecProc dispatches every cell's
	// windows as job manifests under WorkerDir for `rixsim -worker`
	// processes to claim (each cell gets its own coordinator, all
	// sharing the directory and the worker fleet; no in-process pool is
	// created). Estimates are bit-identical either way.
	Executor string

	// WorkerDir is the cache directory shared with the worker processes
	// when Executor is run.ExecProc.
	WorkerDir string

	names    []string
	src      WorkloadSource
	simulate run.DetailRunner // test seam; nil = run.Do's real pipeline
}

// NewEngine creates an engine over the named workloads (nil means the
// full paper suite). Names are validated against the workload registry
// up front; nothing is built until first use.
func NewEngine(names []string) (*Engine, error) {
	if names == nil {
		names = workload.Names()
	}
	for _, n := range names {
		if _, ok := workload.ByName(n); !ok {
			return nil, fmt.Errorf("runner: unknown workload %q", n)
		}
	}
	return NewEngineWith(names, workload.NewBuilder()), nil
}

// NewEngineWith creates an engine over a custom workload source; names
// are taken as-is. This is the seam for tests and unregistered
// workloads.
func NewEngineWith(names []string, src WorkloadSource) *Engine {
	return &Engine{
		Parallel: runtime.NumCPU(),
		names:    append([]string(nil), names...),
		src:      src,
	}
}

// Names returns the engine's workload names in order.
func (e *Engine) Names() []string { return e.names }

func (e *Engine) parallel() int {
	if e.Parallel < 1 {
		return 1
	}
	return e.Parallel
}

func (e *Engine) has(name string) bool {
	for _, n := range e.names {
		if n == name {
			return true
		}
	}
	return false
}

// DynLen returns the dynamic instruction count of a workload (building
// it on first use), or 0 if the workload is unknown or fails to build.
func (e *Engine) DynLen(ctx context.Context, name string) int {
	if !e.has(name) {
		return 0
	}
	bw, err := e.src.Get(ctx, name)
	if err != nil {
		return 0
	}
	return bw.DynLen
}

// schedSlots resolves the shared window-scheduler pool size: the
// explicit WindowJobs override, or the whole Parallel budget.
func (e *Engine) schedSlots() int {
	if e.WindowJobs > 0 {
		return e.WindowJobs
	}
	return e.parallel()
}

// scheduler creates the shared window pool for one Run/Stream call, or
// nil when none is shared: cross-process cells execute nothing locally,
// and a one-slot resolution leaves each cell its own one-slot pool. The
// caller must call the returned release func after every cell has
// settled.
func (e *Engine) scheduler() (*sample.Scheduler, int, func()) {
	slots := e.schedSlots()
	if e.Executor == run.ExecProc {
		// Cross-process cells execute nothing locally: skip the pool and
		// let the slot budget size each coordinator's speculation depth.
		return nil, slots, func() {}
	}
	if slots <= 1 {
		return nil, 1, func() {}
	}
	sched := sample.NewScheduler(slots)
	return sched, slots, sched.Close
}

// Run simulates one workload under the given options, outside any spec.
// A sampled run fans its detail windows across a scheduler pool sized
// to the engine's whole Parallel budget — it is the only cell.
func (e *Engine) Run(ctx context.Context, name string, o sim.Options) (*pipeline.Stats, error) {
	if !e.has(name) {
		return nil, fmt.Errorf("runner: workload %q not in engine", name)
	}
	sched, slots, release := e.scheduler()
	defer release()
	return e.cell(ctx, name, Config{Label: o.Label(), Opt: o}, sched, slots)
}

// cell executes one (workload, config) cell through run.Do. Each cell
// mints its own trace source, so concurrent cells over the same workload
// stream independently at O(ROB) memory apiece. Cells whose options
// request sampling run through the interval-sampling engine instead of
// the full-detail pipeline; their Stats cover the measured windows, so
// every ratio metric (IPC, rates, per-million counts) estimates the
// full run while absolute counters are sampled totals.
func (e *Engine) cell(ctx context.Context, bench string, c Config, sched *sample.Scheduler, slots int) (*pipeline.Stats, error) {
	opts := []run.Option{run.WithSource(e.src)}
	if e.Observer != nil {
		opts = append(opts, run.WithObserver(e.Observer))
	}
	if e.simulate != nil {
		opts = append(opts, run.WithDetailRunner(e.simulate))
	}
	req := run.Request{Workload: bench, Label: c.Label, Options: c.Opt}
	if c.Opt.Sampling != nil {
		req.Jobs = slots
		req.CheckpointCache = e.CheckpointCache
		if e.CheckpointCache != "" {
			req.CacheMaxMB = e.CacheMaxMB
			req.CacheMaxAgeSec = e.CacheMaxAgeSec
		}
		req.Executor = e.Executor
		req.WorkerDir = e.WorkerDir
		if sched != nil {
			opts = append(opts, run.WithScheduler(sched))
		}
	}
	res, err := run.Do(ctx, req, opts...)
	if err != nil {
		return nil, err
	}
	return &res.Stats, nil
}

// prep normalizes a private copy of the spec so ad-hoc specs get the
// same label defaulting and axis validation as registered ones.
func (e *Engine) prep(s *Spec) (*Spec, error) {
	c := *s
	c.Configs = append([]Config(nil), s.Configs...)
	if err := c.normalize(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Stream executes the spec's cross-product and calls fn once per
// completed cell, in completion order, from a single goroutine. The
// spec's workloads are built first — in parallel, memoized — and cells
// are then scheduled through the bounded pool. On the first cell or fn
// error, no further cells are scheduled; the error is returned after
// in-flight simulations settle. Cancelling ctx aborts the same way,
// with the context's error.
func (e *Engine) Stream(ctx context.Context, s *Spec, fn func(Result) error) error {
	sp, err := e.prep(s)
	if err != nil {
		return err
	}
	benches := sp.benchesFor(e.names)
	par := e.parallel()
	if err := e.src.BuildAll(ctx, benches, par); err != nil {
		return err
	}
	// One shared window-scheduler pool for the whole matrix: every
	// sampled cell dispatches its speculative detail windows into it, so
	// the WindowJobs budget is never stranded on a cell that settled
	// early — its slots immediately pick up the windows other cells
	// still have queued.
	sched, slots, release := e.scheduler()
	defer release()

	sem := make(chan struct{}, par)
	results := make(chan Result)
	stop := make(chan struct{}) // closed on first error: stop scheduling
	done := ctx.Done()
	go func() {
		defer close(results)
		var wg sync.WaitGroup
		defer wg.Wait()
		for _, b := range benches {
			for _, c := range sp.Configs {
				select {
				case <-stop: // checked alone first: select picks randomly among ready cases
					return
				case <-done:
					return
				default:
				}
				select {
				case <-stop:
					return
				case <-done:
					return
				case sem <- struct{}{}: // acquire before spawning (back-pressure)
				}
				wg.Add(1)
				go func(b string, c Config) {
					defer wg.Done()
					defer func() { <-sem }()
					st, err := e.cell(ctx, b, c, sched, slots)
					results <- Result{Bench: b, Label: c.Label, Stats: st, Err: err}
				}(b, c)
			}
		}
	}()

	var firstErr error
	for r := range results {
		if firstErr != nil {
			continue // drain so workers can exit
		}
		if r.Err != nil {
			firstErr = fmt.Errorf("runner: %s [%s]: %w", r.Bench, r.Label, r.Err)
		} else if err := fn(r); err != nil {
			firstErr = err
		}
		if firstErr != nil {
			close(stop)
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Gather executes the spec and accumulates every cell into a keyed,
// deterministically ordered ResultSet.
func (e *Engine) Gather(ctx context.Context, s *Spec) (*ResultSet, error) {
	sp, err := e.prep(s)
	if err != nil {
		return nil, err
	}
	rs := newResultSet(sp.benchesFor(e.names), sp.Configs)
	if err := e.Stream(ctx, sp, func(r Result) error { rs.add(r); return nil }); err != nil {
		return nil, err
	}
	return rs, nil
}

// RunSpec looks a registered spec up, executes it, and renders its
// tables through the spec's collector.
func (e *Engine) RunSpec(ctx context.Context, id string) ([]*stats.Table, error) {
	sp, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("runner: unknown spec %q (registered: %s)",
			id, strings.Join(SortedIDs(), ", "))
	}
	rs, err := e.Gather(ctx, sp)
	if err != nil {
		return nil, err
	}
	return sp.Collect(rs)
}
