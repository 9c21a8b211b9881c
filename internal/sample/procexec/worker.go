package procexec

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rix/internal/gobfile"
	"rix/internal/sample"
)

// WorkerConfig tunes one Work loop. The zero value selects every
// default.
type WorkerConfig struct {
	// ID identifies this worker in leases, results, and coordinator
	// errors (default "<hostname>-<pid>").
	ID string

	// Poll is the directory scan interval while idle (default 50ms).
	Poll time.Duration

	// Heartbeat is the lease mtime re-stamp interval while executing a
	// window (default 1s). Keep it well under the coordinators'
	// LeaseExpiry or a long window looks like a crash.
	Heartbeat time.Duration

	// Idle, when positive, ends the loop cleanly after this long
	// without claiming a job; 0 runs until ctx is cancelled.
	Idle time.Duration

	// OnClaim fires after a lease is won, OnDone after its result is
	// written. Both run on the Work goroutine; nil fields are skipped.
	OnClaim func(job string, window int)
	OnDone  func(job string, window int)
}

func (w WorkerConfig) withDefaults() WorkerConfig {
	if w.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.Poll <= 0 {
		w.Poll = 50 * time.Millisecond
	}
	if w.Heartbeat <= 0 {
		w.Heartbeat = time.Second
	}
	return w
}

// Work is the worker loop behind `rixsim -worker <dir>`: scan the
// directory's windows/ subdirectory for unclaimed job manifests, claim
// one at a time with an exclusive lease, execute it on the loop's
// one-slot sample.Scheduler, and write the result back atomically. The
// slot keeps its boot structures and last finished pipeline across
// jobs. The
// loop serves every coordinator sharing the directory and runs until
// ctx is cancelled (returning ctx.Err()) or, when wc.Idle is set, until
// no job has been claimed for that long (returning nil).
//
// A corrupt manifest is a clean miss: the worker releases its claim and
// skips the job. A worker cancelled mid-window releases its claim
// without writing a result, so the coordinator re-offers the job; any
// other execution failure is reported in the result's Err field and
// fails the owning run.
func Work(ctx context.Context, dir string, wc WorkerConfig) error {
	wc = wc.withDefaults()
	jobs := filepath.Join(dir, JobsDir)
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return fmt.Errorf("procexec: jobs dir: %w", err)
	}
	pool := sample.NewScheduler(1)
	defer pool.Close()
	ticker := time.NewTicker(wc.Poll)
	defer ticker.Stop()
	idleSince := time.Now()
	for {
		claimed, err := scanOnce(ctx, pool, jobs, wc)
		if err != nil {
			return err
		}
		if claimed {
			idleSince = time.Now()
			// Something was runnable: rescan immediately — more jobs
			// are likely waiting behind it.
			continue
		}
		if wc.Idle > 0 && time.Since(idleSince) >= wc.Idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// scanOnce walks the job manifests in name order and executes the first
// one it can claim, reporting whether a claim was won. Name order makes
// competing workers start from the same candidate, which loses nothing
// (the O_EXCL claim settles ownership) and keeps lower window indexes —
// the ones the coordinators settle first — flowing out first.
func scanOnce(ctx context.Context, pool *sample.Scheduler, jobs string, wc WorkerConfig) (bool, error) {
	paths, err := filepath.Glob(filepath.Join(jobs, "*.job"))
	if err != nil {
		return false, err
	}
	sort.Strings(paths)
	for _, jobPath := range paths {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		base := strings.TrimSuffix(filepath.Base(jobPath), ".job")
		resultPath := filepath.Join(jobs, base+".result")
		leasePath := filepath.Join(jobs, base+".lease")
		if _, err := os.Stat(resultPath); err == nil {
			continue // finished, awaiting collection
		}
		if _, err := os.Stat(leasePath); err == nil {
			continue // claimed by someone (liveness is the coordinator's call)
		}
		if !claimLease(leasePath, base, wc.ID) {
			continue // lost the race
		}
		if err := executeJob(ctx, pool, jobPath, leasePath, resultPath, base, wc); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// claimLease attempts the atomic claim: exclusive creation of the lease
// file. The Lease payload is written into the already-claimed file, so
// a reader may observe an empty or torn lease briefly — the coordinator
// needs only its mtime for liveness, and reads an undecodable body again
// on its next poll to learn the claimant.
func claimLease(path, base, worker string) bool {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return false
	}
	werr := writeLease(f, &Lease{Format: LeaseFormat, Job: base, Worker: worker, PID: os.Getpid()})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// Could not record the claimant; release rather than hold an
		// anonymous claim.
		os.Remove(path)
		return false
	}
	return true
}

// executeJob runs one claimed window on pool: heartbeat the lease while
// the manifest is read and the window runs, and write the result.
// Only a worker-fatal condition (ctx cancellation) is returned as an
// error; per-job failures are reported through the result file.
func executeJob(ctx context.Context, pool *sample.Scheduler, jobPath, leasePath, resultPath, base string, wc WorkerConfig) error {
	// Heartbeat the lease from the claim on — decoding a manifest takes
	// time too — so the coordinator can tell "long window" from "dead
	// worker".
	hbCtx, hbStop := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(wc.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case now := <-t.C:
				os.Chtimes(leasePath, now, now)
			}
		}
	}()

	m, err := readManifest(jobPath)
	if err != nil {
		// Corrupt manifest: a clean miss. Release the claim and move on;
		// the coordinator that owns the job will time it out or replace
		// it.
		hbStop()
		hbWG.Wait()
		os.Remove(leasePath)
		return nil
	}
	if wc.OnClaim != nil {
		wc.OnClaim(base, m.Boundary.Index)
	}
	res, runErr := pool.Run(ctx, sample.WindowJob{
		Prog:     m.Prog,
		Config:   m.Config,
		Sampling: m.Sampling,
		Boundary: m.Boundary,
		Feedback: m.Feedback,
	})
	hbStop()
	hbWG.Wait()

	if runErr != nil && ctx.Err() != nil {
		// Shutting down mid-window: release the claim so the job
		// re-offers cleanly, and report the shutdown to the loop.
		os.Remove(leasePath)
		return ctx.Err()
	}
	out := &Result{Format: ResultFormat, Job: base, Worker: wc.ID, Index: m.Boundary.Index}
	if runErr != nil {
		out.Err = runErr.Error()
	} else {
		out.Index = res.Index
		out.Stats = res.Stats
		out.Feedback = res.Feedback
	}
	if err := gobfile.Write(resultPath, out); err != nil {
		// Can't deliver: release the claim so another worker (or this
		// one, next scan) retries rather than wedging the job.
		os.Remove(leasePath)
		return nil
	}
	if _, err := os.Stat(jobPath); os.IsNotExist(err) {
		// The dispatch was withdrawn (discarded by a feedback
		// misspeculation, or its run ended) while we executed: nobody
		// will collect these. Tidy them up.
		os.Remove(resultPath)
		os.Remove(leasePath)
	}
	if wc.OnDone != nil {
		wc.OnDone(base, m.Boundary.Index)
	}
	return nil
}

func writeLease(f *os.File, l *Lease) error {
	return gob.NewEncoder(f).Encode(l)
}
