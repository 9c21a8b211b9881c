package runner

import (
	"context"
	"sync"
	"testing"
	"time"

	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sample/procexec"
	"rix/internal/sim"
)

// TestSampledWindowParallelStress runs real sampled cells through the
// engine pool with both cell-level and window-level parallelism live at
// once — the configuration the race detector needs to see. Every cell's
// stats must equal a one-window-at-a-time (WindowJobs=1) engine's, and
// the observer must witness the shared scheduler actually dispatching
// windows.
func TestSampledWindowParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("real workload builds + four sampled runs (~10s under -race)")
	}
	sp := &Spec{ID: "window-stress"}
	layout := &sample.Sampling{Interval: 4000, Window: 300, Warmup: 150}
	for _, o := range []sim.Options{
		{Integration: sim.IntNone, Sampling: layout},
		{Integration: sim.IntReverse, Sampling: layout},
	} {
		sp.Configs = append(sp.Configs, Config{Label: o.Label(), Opt: o})
	}

	gather := func(e *Engine) map[string]pipeline.Stats {
		t.Helper()
		rs, err := e.Gather(bg, sp)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]pipeline.Stats)
		for _, b := range rs.Benches() {
			for _, l := range rs.Labels() {
				out[b+"/"+l] = *rs.Get(b, l)
			}
		}
		return out
	}

	seqEng, err := NewEngine([]string{"gzip", "crafty"})
	if err != nil {
		t.Fatal(err)
	}
	seqEng.Parallel = 2
	seqEng.WindowJobs = 1
	seq := gather(seqEng)

	parEng, err := NewEngine([]string{"gzip", "crafty"})
	if err != nil {
		t.Fatal(err)
	}
	parEng.Parallel = 4
	parEng.WindowJobs = 3
	var mu sync.Mutex
	var scheduled int
	parEng.Observer = run.ObserverFunc(func(e run.Event) {
		if e.Kind == run.WindowScheduled {
			mu.Lock()
			scheduled++
			mu.Unlock()
		}
	})
	par := gather(parEng)

	if scheduled == 0 {
		t.Error("no WindowScheduled events: the shared scheduler never engaged")
	}
	if len(par) != len(seq) {
		t.Fatalf("%d parallel cells vs %d one-slot", len(par), len(seq))
	}
	for k, sst := range seq {
		if pst, ok := par[k]; !ok || pst != sst {
			t.Errorf("cell %s: window-parallel stats diverge from one-slot", k)
		}
	}
}

// TestCrossProcessEngineParity is the acceptance gate for the
// cross-process executor: a fig4-shaped sampled matrix (baseline plus
// the full-extension preset under realistic-LISP and oracle
// suppression, over gzip and crafty) run through an Executor=proc
// engine — every cell's windows claimed and executed by two worker
// loops over a shared directory — must be bit-identical, cell for cell,
// to the in-process scheduler engine. ci/smoke_worker.sh repeats the
// same comparison across real process boundaries.
func TestCrossProcessEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve sampled cells, six of them cross-process (~20s)")
	}
	layout := &sample.Sampling{Interval: 4000, Window: 300, Warmup: 150}
	sp := &Spec{ID: "fig4-proc"}
	for _, o := range []sim.Options{
		{Integration: sim.IntNone, Sampling: layout},
		{Integration: sim.IntReverse, Suppression: sim.SuppressLISP, Sampling: layout},
		{Integration: sim.IntReverse, Suppression: sim.SuppressOracle, Sampling: layout},
	} {
		sp.Configs = append(sp.Configs, Config{Label: o.Label(), Opt: o})
	}

	gather := func(e *Engine) map[string]pipeline.Stats {
		t.Helper()
		rs, err := e.Gather(bg, sp)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]pipeline.Stats)
		for _, b := range rs.Benches() {
			for _, l := range rs.Labels() {
				out[b+"/"+l] = *rs.Get(b, l)
			}
		}
		return out
	}

	inEng, err := NewEngine([]string{"gzip", "crafty"})
	if err != nil {
		t.Fatal(err)
	}
	inEng.Parallel = 2
	inEng.WindowJobs = 3
	want := gather(inEng)

	dir := t.TempDir()
	wctx, stopWorkers := context.WithCancel(bg)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			procexec.Work(wctx, dir, procexec.WorkerConfig{Poll: 2 * time.Millisecond}) //nolint:errcheck
		}()
	}
	defer func() { stopWorkers(); wg.Wait() }()

	procEng, err := NewEngine([]string{"gzip", "crafty"})
	if err != nil {
		t.Fatal(err)
	}
	procEng.Parallel = 2
	procEng.WindowJobs = 3
	procEng.Executor = run.ExecProc
	procEng.WorkerDir = dir
	got := gather(procEng)

	if len(got) != len(want) {
		t.Fatalf("%d cross-process cells vs %d in-process", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("cell %s: cross-process stats diverge from in-process scheduler", k)
		}
	}
}

// TestSchedulerPoolResolution pins the shared-pool sizing rules that
// replaced the old static cells×windows budget split: the pool is the
// whole Parallel budget unless WindowJobs overrides it, and a 1-slot
// resolution shares no pool: each sampled cell runs on the one-slot
// pool sample.Run creates for it.
func TestSchedulerPoolResolution(t *testing.T) {
	e := &Engine{Parallel: 8}
	if got := e.schedSlots(); got != 8 {
		t.Errorf("default pool: got %d slots, want Parallel=8", got)
	}
	e.WindowJobs = 3
	if got := e.schedSlots(); got != 3 {
		t.Errorf("explicit WindowJobs not honored: got %d", got)
	}
	e.WindowJobs = 1
	sched, slots, release := e.scheduler()
	defer release()
	if sched != nil || slots != 1 {
		t.Errorf("WindowJobs=1: got sched=%v slots=%d, want a one-slot pool per cell", sched, slots)
	}
	e.WindowJobs = 4
	sched, slots, release = e.scheduler()
	defer release()
	if sched == nil || sched.Size() != 4 || slots != 4 {
		t.Errorf("WindowJobs=4: got sched=%v (slots=%d), want a 4-slot pool", sched, slots)
	}
}
