package procexec_test

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rix/internal/sample"
	"rix/internal/sample/procexec"
	"rix/internal/sim"
	"rix/internal/testutil"
	"rix/internal/workload"
)

func buildBench(t testing.TB, name string) workload.Built {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return bw
}

// fastCoord is a test-speed coordinator config: tight polling, generous
// lease expiry (workers heartbeat constantly; only the crash tests
// shrink it).
func fastCoord() procexec.Config {
	return procexec.Config{Width: 4, Poll: 2 * time.Millisecond, LeaseExpiry: 5 * time.Second}
}

func fastWorker() procexec.WorkerConfig {
	return procexec.WorkerConfig{Poll: 2 * time.Millisecond, Heartbeat: heartbeat}
}

// The crash tests' timing model: a live worker re-stamps its lease every
// heartbeat, and a lease goes stale after orphanAfter, a multiple of it
// — enough missed beats that a worker starved by the race detector or a
// busy host is not mistaken for a dead one, while a lease nobody
// heartbeats still expires quickly.
const (
	heartbeat   = 20 * time.Millisecond
	orphanAfter = 5 * heartbeat
)

// startWorkers runs n in-process Work loops over dir — the same code
// path `rixsim -worker` runs, minus the process boundary — and returns
// a stop func that shuts them down and waits for them to exit.
func startWorkers(t *testing.T, dir string, n int, wc procexec.WorkerConfig) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		id := wc
		id.ID = fmt.Sprintf("test-worker-%d", i)
		go func() {
			defer wg.Done()
			procexec.Work(ctx, dir, id) //nolint:errcheck — exits with ctx.Err() on stop
		}()
	}
	return func() { cancel(); wg.Wait() }
}

// TestCrossProcessBitEqual is the executor abstraction's core
// guarantee: a sampled run whose windows execute on cooperating worker
// loops over a shared directory — the cross-process mode — produces an
// Estimate bit-identical to the naive one-window-at-a-time loop's,
// committed in testdata/golden/sampled_oracle.json. gzip is
// feedback-quiescent; crafty trains its LISP mid-run, so its
// misspeculations exercise discarded dispatches (withdrawn manifests)
// through the file protocol.
func TestCrossProcessBitEqual(t *testing.T) {
	ctx := context.Background()
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gzip", "crafty"} {
		bw := buildBench(t, name)
		dir := t.TempDir()
		stop := startWorkers(t, dir, 2, fastWorker())
		coord, err := procexec.New(dir, fastCoord())
		if err != nil {
			t.Fatal(err)
		}
		cross, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: coord})
		stop()
		if err != nil {
			t.Fatalf("%s cross-process: %v", name, err)
		}
		testutil.MatchOracle(t, name, cross)
	}
}

// TestConcurrentRunsSharedDir races two coordinators (one per sampled
// run) and three worker loops on one directory — the multi-process,
// shared-cache-dir contention case, run under -race in CI. Distinct run
// IDs must keep the runs' files apart; every lease must be won exactly
// once (no double claims, tallied across all workers); and both
// estimates must stay bit-identical to the naive loop's.
func TestConcurrentRunsSharedDir(t *testing.T) {
	ctx := context.Background()
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	benches := []string{"gzip", "crafty"}
	dir := t.TempDir()
	var mu sync.Mutex
	claims := map[string]int{}
	wc := fastWorker()
	wc.OnClaim = func(job string, window int) {
		mu.Lock()
		claims[job]++
		mu.Unlock()
	}
	stop := startWorkers(t, dir, 3, wc)
	defer stop()

	ests := make([]*sample.Estimate, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, name := range benches {
		bw := buildBench(t, name)
		coord, err := procexec.New(dir, fastCoord())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ests[i], errs[i] = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: coord})
		}(i)
	}
	wg.Wait()
	stop()
	for i, name := range benches {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		testutil.MatchOracle(t, name, ests[i])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(claims) == 0 {
		t.Fatal("no claims observed")
	}
	for job, n := range claims {
		if n != 1 {
			t.Errorf("job %s claimed %d times; the exclusive lease must be won exactly once", job, n)
		}
	}
}

// oneJob prepares a single dispatchable WindowJob plus its expected
// result, for tests that drive Coordinator.Run directly.
func oneJob(t *testing.T) (sample.WindowJob, sample.WindowResult) {
	t.Helper()
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Boundaries) < 2 {
		t.Fatalf("only %d boundaries", len(warm.Boundaries))
	}
	b := warm.Boundaries[1]
	job := sample.WindowJob{
		Prog:     bw.Prog,
		Config:   cfg,
		Sampling: warm.Sampling,
		Boundary: b,
	}
	pool := sample.NewScheduler(1)
	defer pool.Close()
	want, err := pool.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	return job, want
}

// waitForFile polls for a glob match under the jobs dir.
func waitForFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		matches, err := filepath.Glob(filepath.Join(dir, procexec.JobsDir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) > 0 {
			return matches[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no %s appeared in %s", pattern, dir)
	return ""
}

// TestCorruptResultIsMiss pins the warm-cache discipline on the result
// side of the protocol: a torn or garbage result entry is deleted and
// the job re-offered — never decoded into a bogus measurement — and the
// eventually collected result is the real one.
func TestCorruptResultIsMiss(t *testing.T) {
	ctx := context.Background()
	job, want := oneJob(t)
	dir := t.TempDir()
	coord, err := procexec.New(dir, fastCoord())
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res sample.WindowResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, job)
		done <- outcome{res, err}
	}()

	jobPath := waitForFile(t, dir, "*.job")
	base := strings.TrimSuffix(filepath.Base(jobPath), ".job")
	resultPath := filepath.Join(dir, procexec.JobsDir, base+".result")
	if err := os.WriteFile(resultPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The coordinator must discard the corrupt entry and keep waiting;
	// only then start a real worker to finish the job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(resultPath); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("corrupt result was never discarded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop := startWorkers(t, dir, 1, fastWorker())
	defer stop()
	o := <-done
	if o.err != nil {
		t.Fatalf("run after corrupt result: %v", o.err)
	}
	if !reflect.DeepEqual(o.res, want) {
		t.Error("result after corrupt-entry miss diverges from direct execution")
	}
}

// claimAs fakes a worker's exclusive claim without ever heartbeating —
// the crash stand-in for the orphan tests.
func claimAs(t *testing.T, dir, base, worker string) {
	t.Helper()
	path := filepath.Join(dir, procexec.JobsDir, base+".lease")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatalf("claim %s: %v", base, err)
	}
	err = gob.NewEncoder(f).Encode(&procexec.Lease{
		Format: procexec.LeaseFormat, Job: base, Worker: worker, PID: os.Getpid(),
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerCrashRedispatch: a worker that claims a window and dies
// (its lease goes stale) must not wedge the run — the coordinator
// breaks the lease and the surviving worker re-claims and finishes the
// window, with the result unchanged.
func TestWorkerCrashRedispatch(t *testing.T) {
	ctx := context.Background()
	job, want := oneJob(t)
	dir := t.TempDir()
	cc := fastCoord()
	cc.LeaseExpiry = orphanAfter
	cc.MaxRedispatch = 1
	var mu sync.Mutex
	var claimants []string
	cc.OnLeaseClaimed = func(job, worker string, window int) {
		mu.Lock()
		claimants = append(claimants, worker)
		mu.Unlock()
	}
	coord, err := procexec.New(dir, cc)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res sample.WindowResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, job)
		done <- outcome{res, err}
	}()

	jobPath := waitForFile(t, dir, "*.job")
	base := strings.TrimSuffix(filepath.Base(jobPath), ".job")
	claimAs(t, dir, base, "crashed-worker")
	// Wait for the coordinator to break the stale lease (the
	// re-dispatch), then bring up a live worker to take it over.
	leasePath := filepath.Join(dir, procexec.JobsDir, base+".lease")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(leasePath); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale lease was never broken")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop := startWorkers(t, dir, 1, fastWorker())
	defer stop()
	o := <-done
	if o.err != nil {
		t.Fatalf("run after worker crash: %v", o.err)
	}
	if !reflect.DeepEqual(o.res, want) {
		t.Error("re-dispatched result diverges from direct execution")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(claimants) == 0 || claimants[0] != "crashed-worker" {
		t.Errorf("claimants %v; want the crashed worker observed first", claimants)
	}
}

// TestWorkerCrashNamedInError: with the re-dispatch budget exhausted,
// the coordinator must fail the run with an error naming both the
// orphaned window and the worker that abandoned it — "some window
// timed out somewhere" is not actionable on a fleet.
func TestWorkerCrashNamedInError(t *testing.T) {
	ctx := context.Background()
	job, _ := oneJob(t)
	dir := t.TempDir()
	cc := fastCoord()
	cc.LeaseExpiry = orphanAfter
	cc.MaxRedispatch = -1 // no re-dispatch budget: first orphan is fatal
	coord, err := procexec.New(dir, cc)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, job)
		errCh <- err
	}()
	jobPath := waitForFile(t, dir, "*.job")
	base := strings.TrimSuffix(filepath.Base(jobPath), ".job")
	claimAs(t, dir, base, "crashed-worker-7")
	err = <-errCh
	if err == nil {
		t.Fatal("orphaned window with no re-dispatch budget did not fail")
	}
	msg := err.Error()
	wantWindow := fmt.Sprintf("window %d", job.Boundary.Index)
	if !strings.Contains(msg, wantWindow) || !strings.Contains(msg, "crashed-worker-7") {
		t.Errorf("error %q does not name the orphaned window (%s) and worker (crashed-worker-7)", msg, wantWindow)
	}
}

// TestCacheSharesWorkerDir: a run's checkpoint cache and a worker
// directory may be the same directory. A cache-writing sampled run loops while a
// cross-process run dispatches window jobs into the directory's
// windows/ subdirectory; the cache entry lands at the root, every job
// file is collected, and both estimates stay exact. Run under -race in
// CI.
func TestCacheSharesWorkerDir(t *testing.T) {
	ctx := context.Background()
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	bw := buildBench(t, "crafty")
	gz := buildBench(t, "gzip")

	dir := t.TempDir()
	stop := startWorkers(t, dir, 2, fastWorker())
	defer stop()

	var cached []*sample.Estimate
	caching := make(chan error, 1)
	go func() {
		// The first iteration writes the warm set into dir; the others
		// hit it, concurrently with the claims.
		for i := 0; i < 3; i++ {
			sched := sample.NewScheduler(2)
			est, err := sample.Run(ctx, gz.Prog, gz.DynLen, cfg, sample.Config{CacheDir: dir, Scheduler: sched})
			sched.Close()
			if err != nil {
				caching <- err
				return
			}
			cached = append(cached, est)
		}
		caching <- nil
	}()

	coord, err := procexec.New(dir, fastCoord())
	if err != nil {
		t.Fatal(err)
	}
	cross, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: coord})
	if err != nil {
		t.Fatalf("cross-process run beside a cache-writing run: %v", err)
	}
	if err := <-caching; err != nil {
		t.Fatalf("cache-writing run: %v", err)
	}
	testutil.MatchOracle(t, "crafty", cross)
	for _, est := range cached {
		testutil.MatchOracle(t, "gzip", est)
	}

	// A worker still finishing a withdrawn dispatch tidies its own
	// files; once the workers have exited, nothing may be left.
	stop()
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.warmset")); len(entries) != 1 {
		t.Errorf("cache root holds %d .warmset entries, want 1", len(entries))
	}
	if left, _ := os.ReadDir(filepath.Join(dir, procexec.JobsDir)); len(left) != 0 {
		t.Errorf("%d job files left in %s after the run and its workers finished", len(left), procexec.JobsDir)
	}
}

// TestWorkerIdleExit: a worker with an idle bound exits cleanly (nil,
// not ctx.Err()) when no work shows up — the mode CI smoke jobs use so
// orphaned workers cannot outlive their step.
func TestWorkerIdleExit(t *testing.T) {
	wc := fastWorker()
	wc.Idle = 30 * time.Millisecond
	if err := procexec.Work(context.Background(), t.TempDir(), wc); err != nil {
		t.Fatalf("idle worker exit: %v", err)
	}
}
