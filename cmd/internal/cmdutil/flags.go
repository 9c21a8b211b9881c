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
// sampled simulations: the detail-window parallelism and the
// cross-process window executor (-worker-dir on a sampled run, -worker
// on the processes serving it). Register installs the group on a
// FlagSet under one set of names, so rixsim and rixbench
// stay knob-for-knob identical; after flag.Parse, Apply (single
// run.Request) or Configure (runner.Engine) copies the resolved values
// onto the executing side.
type SampledFlags struct {
	// Jobs sizes the window-scheduler pool (0 = NumCPU for a single
	// run, the -j budget for a matrix; 1 = one window at a time).
	Jobs int
	// Worker, when set, flips the tool into worker mode: instead of
	// running anything itself, it serves window jobs from the named
	// directory (see RunWorker). WorkerIdle ends the loop after that
	// long without a claim (0 = run until interrupted).
	Worker     string
	WorkerIdle time.Duration
	// WorkerDir executes the sampled run's detail windows on `-worker`
	// processes watching this directory instead of the in-process pool.
	WorkerDir string
}

// Register installs the shared sampled-run flags on fs (typically
// flag.CommandLine).
func (f *SampledFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "jobs", 0,
		"sampled window-scheduler slots (0 = the parallelism budget, 1 = one window at a time)")
	fs.StringVar(&f.Worker, "worker", "",
		"run as a window-job worker over this directory (serves -worker-dir runs; no simulation of its own)")
	fs.DurationVar(&f.WorkerIdle, "worker-idle", 0,
		"exit the -worker loop after this long without claiming a job (0 = run until interrupted)")
	fs.StringVar(&f.WorkerDir, "worker-dir", "",
		"execute sampled detail windows on -worker processes watching this directory instead of the in-process pool")
}

// Check validates the flag group's cross-field constraints after
// flag.Parse, with errors that name the offending flag. sampled reports
// whether the tool's own flags select a sampled run: the other flags
// apply only to one, so without it they are an error rather than
// silently ignored. Worker mode runs no simulation of its own and is
// exempt.
func (f *SampledFlags) Check(sampled bool) error {
	if f.Worker != "" && f.WorkerDir != "" {
		return fmt.Errorf("-worker and -worker-dir are mutually exclusive (a worker serves sampled runs, it does not run one)")
	}
	if f.Worker == "" && !sampled {
		for _, c := range []struct {
			name string
			set  bool
		}{
			{"-jobs", f.Jobs != 0},
			{"-worker-dir", f.WorkerDir != ""},
		} {
			if c.set {
				return fmt.Errorf("%s only applies to sampled runs (add -sample)", c.name)
			}
		}
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
// from the -worker directory, execute them, write results back.
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
// Jobs > 1 and WorkerDir otherwise.
func (f *SampledFlags) Apply(req *run.Request) {
	jobs := f.Jobs
	if jobs == 0 {
		jobs = runtime.NumCPU()
	}
	req.Jobs = jobs
	req.WorkerDir = f.WorkerDir
}

// Configure copies the knobs onto a matrix engine; the engine applies
// them to each sampled cell itself (zero values keep its defaults, so
// -jobs 0 means the engine's -j budget).
func (f *SampledFlags) Configure(e *runner.Engine) {
	e.WindowJobs = f.Jobs
	e.WorkerDir = f.WorkerDir
}
