package cmdutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample/procexec"
)

// SampledFlags is the flag group shared by every tool that executes
// sampled simulations: the detail-window parallelism plus the
// content-addressed checkpoint cache and its bounds. Register installs
// the group on a FlagSet under one set of names, so rixsim and rixbench
// stay knob-for-knob identical; after flag.Parse, Apply (single
// run.Request) or Configure (runner.Engine) copies the resolved values
// onto the executing side.
type SampledFlags struct {
	// Jobs sizes the window-scheduler pool (0 = NumCPU for a single
	// run, the -j budget for a matrix; 1 = one window at a time).
	Jobs int
	// Cache is the content-addressed warm-set cache directory;
	// CacheMB / CacheAge bound it (0 = unbounded).
	Cache    string
	CacheMB  int
	CacheAge time.Duration
	// Worker, when set, flips the tool into worker mode: instead of
	// running anything itself, it serves window jobs from the named
	// cache directory (see RunWorker). WorkerIdle ends the loop after
	// that long without a claim (0 = run until interrupted).
	Worker     string
	WorkerIdle time.Duration
	// Coordinator executes the sampled run's detail windows on
	// `-worker` processes sharing the -ckpt-cache directory instead of
	// the in-process pool.
	Coordinator bool
}

// Register installs the shared sampled-run flags on fs (typically
// flag.CommandLine).
func (f *SampledFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "jobs", 0,
		"sampled window-scheduler slots (0 = the parallelism budget, 1 = one window at a time)")
	fs.StringVar(&f.Cache, "ckpt-cache", "",
		"content-addressed warm-set cache directory shared by sampled runs")
	fs.IntVar(&f.CacheMB, "ckpt-cache-mb", 0,
		"bound -ckpt-cache total size in MiB, LRU-evicting on save (0 = unbounded)")
	fs.DurationVar(&f.CacheAge, "ckpt-cache-age", 0,
		"evict -ckpt-cache entries not used within this duration (0 = no age bound)")
	fs.StringVar(&f.Worker, "worker", "",
		"run as a window-job worker over this shared cache directory (serves -coordinator runs; no simulation of its own)")
	fs.DurationVar(&f.WorkerIdle, "worker-idle", 0,
		"exit the -worker loop after this long without claiming a job (0 = run until interrupted)")
	fs.BoolVar(&f.Coordinator, "coordinator", false,
		"execute sampled detail windows on -worker processes sharing -ckpt-cache instead of the in-process pool")
}

// Check validates the flag group's cross-field constraints after
// flag.Parse, with errors that name the missing flag.
func (f *SampledFlags) Check() error {
	if f.Worker != "" && f.Coordinator {
		return fmt.Errorf("-worker and -coordinator are mutually exclusive (a worker serves coordinators, it does not run one)")
	}
	if f.Coordinator && f.Cache == "" {
		return fmt.Errorf("-coordinator needs -ckpt-cache (the directory the -worker processes watch)")
	}
	if f.WorkerIdle > 0 && f.Worker == "" {
		return fmt.Errorf("-worker-idle needs -worker")
	}
	return nil
}

// WorkerMode reports whether -worker was given; the tool should call
// RunWorker and skip its normal body.
func (f *SampledFlags) WorkerMode() bool { return f.Worker != "" }

// RunWorker runs the worker loop behind -worker: claim window jobs
// from the shared cache directory, execute them, write results back.
// Returns when ctx is cancelled or, with -worker-idle, after the idle
// bound passes with no work. verbose logs each claim and completion to
// stderr.
func (f *SampledFlags) RunWorker(ctx context.Context, verbose bool) error {
	wc := procexec.WorkerConfig{Idle: f.WorkerIdle}
	if verbose {
		wc.OnClaim = func(job string, window int) {
			fmt.Fprintf(os.Stderr, "[%s] claimed window %d (%s)\n", time.Now().Format("15:04:05"), window, job)
		}
		wc.OnDone = func(job string, window int) {
			fmt.Fprintf(os.Stderr, "[%s] finished window %d (%s)\n", time.Now().Format("15:04:05"), window, job)
		}
	}
	return procexec.Work(ctx, f.Worker, wc)
}

// Apply copies the resolved knobs onto one sampled run.Request. Only
// call it for requests whose Options.Sampling is set — Validate rejects
// Jobs > 1 and the cache fields otherwise.
func (f *SampledFlags) Apply(req *run.Request) {
	jobs := f.Jobs
	if jobs == 0 {
		jobs = runtime.NumCPU()
	}
	req.Jobs = jobs
	req.CheckpointCache = f.Cache
	if f.Cache != "" {
		req.CacheMaxMB = f.CacheMB
		req.CacheMaxAgeSec = int(f.CacheAge / time.Second)
	}
	if f.Coordinator {
		req.Executor = run.ExecProc
		req.WorkerDir = f.Cache
	}
}

// Configure copies the knobs onto a matrix engine; the engine applies
// them to each sampled cell itself (zero values keep its defaults, so
// -jobs 0 means the engine's -j budget).
func (f *SampledFlags) Configure(e *runner.Engine) {
	e.WindowJobs = f.Jobs
	e.CheckpointCache = f.Cache
	e.CacheMaxMB = f.CacheMB
	e.CacheMaxAgeSec = int(f.CacheAge / time.Second)
	if f.Coordinator {
		e.Executor = run.ExecProc
		e.WorkerDir = f.Cache
	}
}
