// Package procexec is the cross-process window executor: a Coordinator
// that implements sample.Executor by writing window-job manifests into
// a shared cache directory, and a Work loop (run by `rixsim -worker
// <cachedir>`) that claims those manifests, executes their windows, and
// writes results back. Together they shard one sampled run's detail
// windows across any number of cooperating processes — on one machine
// or many sharing a filesystem — while the window coordinator's
// speculation logic (and therefore the estimate, bit for bit) stays
// exactly what the in-process pool produces.
//
// # File protocol
//
// All traffic lives under <dir>/windows/ of the content-addressed
// cache directory sampled runs already share, three files per dispatch:
//
//	<base>.job     the manifest: program, machine config, window
//	               layout, boundary snapshot, and boot feedback —
//	               everything sample.ExecuteWindow needs. Written
//	               atomically (temp file + rename) by the coordinator.
//	<base>.lease   the claim: created by a worker with O_CREATE|O_EXCL,
//	               which makes claiming atomic on any POSIX filesystem —
//	               exactly one worker wins a job. The worker re-stamps
//	               the lease's mtime on a heartbeat interval while
//	               executing; a lease whose mtime goes stale marks its
//	               worker as crashed.
//	<base>.result  the measurement: stats plus the window's final LISP
//	               feedback. Written atomically by the worker; the
//	               coordinator removes all three files once collected.
//
// <base> is <runID>-w<index>-d<seq>: a random per-coordinator run ID
// (two coordinators sharing the directory never collide), the window
// index, and a dispatch sequence number (a window discarded by a
// feedback misspeculation re-dispatches under a new manifest whose
// Feedback differs — manifests are keyed by dispatch, not content).
//
// Every file follows the warm-set cache's discipline: saves are atomic,
// and a corrupt or mismatched entry is treated as a clean miss, never
// trusted — a half-written result (worker crashed mid-rename has no
// window for this, but a torn write on a non-atomic filesystem does)
// is deleted and the job re-offered. The warm-cache LRU sweep ignores
// the windows/ subdirectory (it only considers .warmset entries at the
// cache root), so a sweep racing a claim never eats a manifest.
//
// # Crash recovery
//
// The coordinator polls each dispatched job. A lease whose mtime is
// older than Config.LeaseExpiry is an orphan: its worker stopped
// heartbeating (crashed, killed, or unplugged). The coordinator breaks
// the lease — re-offering the manifest to the surviving workers — up to
// Config.MaxRedispatch times, then fails the run with an error naming
// the window and the worker that orphaned it. Because a window's result
// is a deterministic function of its manifest, a slow-but-alive worker
// whose lease was broken can still land a result harmlessly: it is
// byte-for-byte the result the re-dispatched claim produces.
package procexec

import (
	"context"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/prog"
	"rix/internal/sample"
)

// Format constants version the three gob encodings. Bump the owning
// constant whenever its struct (or any embedded state struct) changes
// shape; both sides reject other versions as corrupt entries (clean
// misses). doc/FORMATS.md is the authoritative description — keep it in
// lockstep.
const (
	ManifestFormat = 1
	LeaseFormat    = 1
	ResultFormat   = 1
)

// JobsDir is the subdirectory of the shared cache directory that holds
// the window-job files. Keeping them out of the cache root keeps them
// invisible to the warm-set LRU sweep.
const JobsDir = "windows"

// Manifest is one dispatched window job on disk: the pure-data form of
// a sample.WindowJob plus identification, everything a worker process
// needs to execute the window with sample.ExecuteWindow.
type Manifest struct {
	Format   int
	Job      string // file base name, echoed back in Lease and Result
	Prog     *prog.Program
	Config   pipeline.Config
	Sampling sample.Sampling
	Boundary sample.Boundary
	Feedback core.LISPState
}

// Lease is a worker's claim on one job. The file's existence is the
// claim (created O_CREATE|O_EXCL); the contents identify the claimant,
// and the file's mtime — re-stamped on the worker's heartbeat — is the
// liveness signal.
type Lease struct {
	Format int
	Job    string
	Worker string
	PID    int
}

// Result is one executed window's measurement on disk. Err carries a
// worker-side execution failure (the coordinator fails the run with
// it); a worker shutting down mid-window writes no Result at all and
// releases its lease instead.
type Result struct {
	Format   int
	Job      string
	Worker   string
	Index    int
	Stats    pipeline.Stats
	Feedback core.LISPState
	Err      string
}

// Config tunes a Coordinator. The zero value selects every default.
type Config struct {
	// Width is the capability hint the window coordinator uses as
	// its speculation depth: up to Width window jobs are on offer at
	// once (default 4). Size it to the worker fleet's total capacity.
	Width int

	// Poll is the coordinator's result/lease polling interval
	// (default 25ms).
	Poll time.Duration

	// LeaseExpiry is how stale a lease's mtime may grow before its
	// worker is declared crashed and the job re-offered (default 10s).
	// Workers heartbeat at a fraction of this; see WorkerConfig.
	LeaseExpiry time.Duration

	// MaxRedispatch bounds how many times one dispatch is re-offered
	// after orphaned leases or corrupt results before the run fails
	// (default 2).
	MaxRedispatch int

	// OnWorkerJoined fires the first time this coordinator observes a
	// given worker; OnLeaseClaimed fires for every claim observed —
	// through the lease file, or through the result itself when a fast
	// worker finished between polls; OnResultCollected fires when a
	// result is adopted. All
	// three are called from the Run goroutines (one per in-flight
	// window), so handlers must be safe for concurrent use; nil fields
	// are skipped.
	OnWorkerJoined    func(worker string)
	OnLeaseClaimed    func(job, worker string, window int)
	OnResultCollected func(job string, window int, path string)
}

func (c Config) withDefaults() Config {
	if c.Width < 1 {
		c.Width = 4
	}
	if c.Poll <= 0 {
		c.Poll = 25 * time.Millisecond
	}
	if c.LeaseExpiry <= 0 {
		c.LeaseExpiry = 10 * time.Second
	}
	if c.MaxRedispatch < 0 {
		c.MaxRedispatch = 0
	} else if c.MaxRedispatch == 0 {
		c.MaxRedispatch = 2
	}
	return c
}

// Coordinator implements sample.Executor over the shared-directory file
// protocol. One Coordinator serves one sampled run; concurrent runs
// each create their own (distinct run IDs keep their files apart), and
// any number of worker processes serve them all.
type Coordinator struct {
	dir   string // <cachedir>/windows
	cfg   Config
	runID string
	seq   atomic.Uint64

	mu      sync.Mutex
	workers map[string]bool // worker IDs already reported via OnWorkerJoined
}

// New creates a coordinator over the shared cache directory (the same
// directory `rixsim -worker` watches), creating its windows/
// subdirectory if missing.
func New(dir string, cfg Config) (*Coordinator, error) {
	if dir == "" {
		return nil, fmt.Errorf("procexec: coordinator needs a cache directory")
	}
	jobs := filepath.Join(dir, JobsDir)
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return nil, fmt.Errorf("procexec: jobs dir: %w", err)
	}
	var raw [6]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("procexec: run id: %w", err)
	}
	return &Coordinator{
		dir:     jobs,
		cfg:     cfg.withDefaults(),
		runID:   hex.EncodeToString(raw[:]),
		workers: map[string]bool{},
	}, nil
}

// Width is the coordinator's speculation-depth hint.
func (c *Coordinator) Width() int { return c.cfg.Width }

// Run dispatches one window job to the worker fleet and blocks until
// its result is collected, the job fails permanently, or ctx is
// cancelled (the coordinator then withdraws the manifest so no worker
// wastes time on a discarded dispatch).
func (c *Coordinator) Run(ctx context.Context, job sample.WindowJob) (sample.WindowResult, error) {
	base := fmt.Sprintf("%s-w%05d-d%04d", c.runID, job.Boundary.Index, c.seq.Add(1))
	m := &Manifest{
		Format:   ManifestFormat,
		Job:      base,
		Prog:     job.Prog,
		Config:   job.Config,
		Sampling: job.Sampling,
		Boundary: job.Boundary,
		Feedback: job.Feedback,
	}
	jobPath := filepath.Join(c.dir, base+".job")
	if err := writeGob(jobPath, m); err != nil {
		return sample.WindowResult{}, err
	}
	res, err := c.collect(ctx, base, job.Boundary.Index)
	// Withdraw the dispatch whatever happened: on success the worker's
	// files go too; on cancellation or failure no worker should claim
	// (or keep heartbeating) a dead job. Removal is best-effort — a
	// worker mid-execution tidies its own lease and result when it
	// finds the manifest gone.
	os.Remove(jobPath)
	os.Remove(filepath.Join(c.dir, base+".lease"))
	os.Remove(filepath.Join(c.dir, base+".result"))
	if err != nil {
		return sample.WindowResult{}, err
	}
	return res, nil
}

// collect polls one dispatched job until its result lands, its lease
// orphans past the re-dispatch budget, or ctx cancels.
func (c *Coordinator) collect(ctx context.Context, base string, window int) (sample.WindowResult, error) {
	leasePath := filepath.Join(c.dir, base+".lease")
	resultPath := filepath.Join(c.dir, base+".result")
	ticker := time.NewTicker(c.cfg.Poll)
	defer ticker.Stop()
	retries := 0
	lastWorker := "unknown"
	leaseSeen := false
	for {
		// Result first: a finished job's lease no longer matters.
		switch res, err := readResult(resultPath); {
		case err == nil && res.Format == ResultFormat && res.Job == base && res.Index == window:
			if res.Err != "" {
				return sample.WindowResult{}, fmt.Errorf("procexec: window %d failed on worker %s: %s",
					window, res.Worker, res.Err)
			}
			if !leaseSeen {
				// A fast worker finished between polls and its lease was
				// never observed; the result names the claimant, so the
				// claim telemetry fires here instead of being lost.
				c.noteWorker(res.Worker)
				if c.cfg.OnLeaseClaimed != nil {
					c.cfg.OnLeaseClaimed(base, res.Worker, window)
				}
			}
			if c.cfg.OnResultCollected != nil {
				c.cfg.OnResultCollected(base, window, resultPath)
			}
			return sample.WindowResult{Index: res.Index, Stats: res.Stats, Feedback: res.Feedback}, nil
		case err == nil || !os.IsNotExist(err):
			// A result file exists but is torn, mislabeled, or from a
			// stale format: the warm-cache discipline applies — treat it
			// as a clean miss. Delete it together with the lease so a
			// worker re-claims the still-present manifest.
			retries++
			if retries > c.cfg.MaxRedispatch {
				return sample.WindowResult{}, fmt.Errorf(
					"procexec: window %d: corrupt result from worker %s (%s) and re-dispatch budget (%d) exhausted",
					window, lastWorker, base, c.cfg.MaxRedispatch)
			}
			os.Remove(resultPath)
			os.Remove(leasePath)
			leaseSeen = false
		default:
			// No result yet: check the lease for liveness.
			if info, err := os.Stat(leasePath); err == nil {
				if !leaseSeen {
					// The claimant writes its name into the lease after
					// creating it, so an empty or torn body is read
					// again next poll rather than losing the name.
					if w, err := readLease(leasePath); err == nil && w.Format == LeaseFormat {
						leaseSeen = true
						lastWorker = w.Worker
						c.noteWorker(w.Worker)
						if c.cfg.OnLeaseClaimed != nil {
							c.cfg.OnLeaseClaimed(base, w.Worker, window)
						}
					}
				}
				if time.Since(info.ModTime()) > c.cfg.LeaseExpiry {
					// Orphan: the claimant stopped heartbeating. Break the
					// lease so a surviving worker re-claims the manifest.
					// (If the claimant was merely slow and still finishes,
					// its result is identical by determinism and is
					// adopted harmlessly.)
					retries++
					if retries > c.cfg.MaxRedispatch {
						return sample.WindowResult{}, fmt.Errorf(
							"procexec: window %d orphaned by worker %s (lease %s stale for more than %s) and re-dispatch budget (%d) exhausted",
							window, lastWorker, base, c.cfg.LeaseExpiry, c.cfg.MaxRedispatch)
					}
					os.Remove(leasePath)
					leaseSeen = false
				}
			} else {
				leaseSeen = false
			}
		}
		select {
		case <-ctx.Done():
			return sample.WindowResult{}, ctx.Err()
		case <-ticker.C:
		}
	}
}

// noteWorker fires OnWorkerJoined once per distinct worker ID.
func (c *Coordinator) noteWorker(worker string) {
	c.mu.Lock()
	joined := !c.workers[worker]
	c.workers[worker] = true
	c.mu.Unlock()
	if joined && c.cfg.OnWorkerJoined != nil {
		c.cfg.OnWorkerJoined(worker)
	}
}

// writeGob atomically writes one gob-encoded file: the payload lands
// under a unique temporary name and is renamed into place, so readers
// never see a torn entry on a POSIX filesystem and concurrent writers
// of one path never share a temporary file.
func writeGob(path string, v interface{}) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("procexec: %s: %w", path, err)
	}
	tmp := f.Name()
	err = f.Chmod(0o644) // as readable to other workers as os.Create made it
	if err == nil {
		err = gob.NewEncoder(f).Encode(v)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("procexec: %s: %w", path, err)
	}
	return nil
}

func readResult(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Result
	if err := gob.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("procexec: result %s: %w", path, err)
	}
	return &r, nil
}

func readLease(path string) (*Lease, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var l Lease
	if err := gob.NewDecoder(f).Decode(&l); err != nil {
		return nil, fmt.Errorf("procexec: lease %s: %w", path, err)
	}
	return &l, nil
}

func readManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("procexec: manifest %s: %w", path, err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("procexec: manifest %s has format %d, want %d", path, m.Format, ManifestFormat)
	}
	return &m, nil
}
