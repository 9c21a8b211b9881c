package sample_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rix/internal/pipeline"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/testutil"
	"rix/internal/workload"
)

// benchSubset mirrors the repository's benchmark subset: one workload
// per class (call-poor, call-rich, mixed, memory-bound).
var benchSubset = []string{"gzip", "crafty", "vortex", "mcf"}

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

func fullDetail(t *testing.T, bw workload.Built, o sim.Options) *pipeline.Stats {
	t.Helper()
	cfg, err := o.Config()
	if err != nil {
		t.Fatalf("%s [%s] config: %v", bw.Prog.Name, o.Label(), err)
	}
	full, err := pipeline.New(cfg, bw.Prog, bw.Source()).RunContext(context.Background())
	if err != nil {
		t.Fatalf("%s [%s] full: %v", bw.Prog.Name, o.Label(), err)
	}
	return full
}

// TestSampledAccuracyAcrossPresets is the sampled-vs-full property test:
// on the benchmark workloads, under the no-integration baseline and
// every integration preset crossed with both suppression modes, the
// default-knob sampled estimates must stay within the documented bounds
// (IPCErrBound relative on IPC, RateErrBound absolute on integration
// rate) of the full-detail run.
func TestSampledAccuracyAcrossPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-detail reference runs (~1 minute)")
	}
	ctx := context.Background()
	opts := []sim.Options{{Integration: sim.IntNone}}
	for _, p := range sim.IntegrationPresets() {
		opts = append(opts,
			sim.Options{Integration: p, Suppression: sim.SuppressLISP},
			sim.Options{Integration: p, Suppression: sim.SuppressOracle})
	}
	for _, name := range benchSubset {
		bw := buildBench(t, name)
		for _, o := range opts {
			cfg, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			full := fullDetail(t, bw, o)
			est, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatalf("%s [%s] sampled: %v", name, o.Label(), err)
			}
			ipcErr := est.IPC()/full.IPC() - 1
			if ipcErr < 0 {
				ipcErr = -ipcErr
			}
			if ipcErr > sample.IPCErrBound {
				t.Errorf("%s [%s]: IPC %.3f vs full %.3f: relative error %.1f%% exceeds %.0f%%",
					name, o.Label(), est.IPC(), full.IPC(), 100*ipcErr, 100*sample.IPCErrBound)
			}
			rateErr := est.IntegrationRate() - full.IntegrationRate()
			if rateErr < 0 {
				rateErr = -rateErr
			}
			if rateErr > sample.RateErrBound {
				t.Errorf("%s [%s]: rate %.4f vs full %.4f: absolute error %.2fpp exceeds %.1fpp",
					name, o.Label(), est.IntegrationRate(), full.IntegrationRate(),
					100*rateErr, 100*sample.RateErrBound)
			}
		}
	}
}

// TestCheckpointResumeBitEqual is the checkpoint round-trip guarantee: a
// sampled run that wrote checkpoints, re-measured from disk by Continue
// (gob decode, state reconstruction, window re-execution), reproduces
// every window's Stats and the aggregate of the naive loop byte-for-byte.
func TestCheckpointResumeBitEqual(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc := sample.Config{CheckpointDir: dir}

	direct, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if run, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc); err != nil || !reflect.DeepEqual(run, direct) {
		t.Fatalf("checkpointing run diverges from the naive loop (err %v)", err)
	}
	if len(direct.Windows) < 4 {
		t.Fatalf("only %d windows; want a multi-window run", len(direct.Windows))
	}
	paths, err := sample.Checkpoints(dir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(direct.Windows) {
		t.Fatalf("%d checkpoints for %d windows", len(paths), len(direct.Windows))
	}

	resumed, err := sample.Continue(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Windows) != len(direct.Windows) {
		t.Fatalf("resume produced %d windows, direct %d", len(resumed.Windows), len(direct.Windows))
	}
	for i := range direct.Windows {
		if !reflect.DeepEqual(direct.Windows[i], resumed.Windows[i]) {
			t.Errorf("window %d differs:\ndirect:  %+v\nresumed: %+v",
				i, direct.Windows[i], resumed.Windows[i])
		}
	}
	if !reflect.DeepEqual(direct.Agg, resumed.Agg) {
		t.Errorf("aggregate Stats differ:\ndirect:  %+v\nresumed: %+v", direct.Agg, resumed.Agg)
	}
}

// TestContinueCancelledRunBitEqual is the resume-after-cancel
// acceptance criterion: a sampled run cancelled mid-flight (after its
// second window) leaves its checkpoints; Continue then finishes the
// run, and the combined windows and aggregate must equal an
// uninterrupted run's bit-for-bit.
func TestContinueCancelledRunBitEqual(t *testing.T) {
	bg := context.Background()
	bw := buildBench(t, "gzip")
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}

	direct, err := sample.NaiveRun(bg, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Windows) < 4 {
		t.Fatalf("only %d windows; want a multi-window run to interrupt", len(direct.Windows))
	}

	// Cancel deterministically after the second completed window; the
	// run notices at its next batched poll, leaving the checkpoints of
	// every window it dispatched.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	sc := sample.Config{CheckpointDir: dir}
	sc.Hooks.WindowDone = func(w sample.WindowStat) {
		if w.Index == 1 {
			cancel()
		}
	}
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	resumed, err := sample.Continue(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Windows) != len(direct.Windows) {
		t.Fatalf("continue produced %d windows, uninterrupted %d", len(resumed.Windows), len(direct.Windows))
	}
	for i := range direct.Windows {
		if !reflect.DeepEqual(direct.Windows[i], resumed.Windows[i]) {
			t.Errorf("window %d differs:\nuninterrupted: %+v\ncontinued:     %+v",
				i, direct.Windows[i], resumed.Windows[i])
		}
	}
	if !reflect.DeepEqual(direct.Agg, resumed.Agg) {
		t.Errorf("aggregate Stats differ:\nuninterrupted: %+v\ncontinued:     %+v", direct.Agg, resumed.Agg)
	}
}

// TestContinueFromWindowZeroFiresNoWarmHooks: when window 0 is the
// newest checkpoint (here: a completed run's set cut back to it),
// Continue resumes its pass at index 0. That pass is not a warm pass
// from the program entry: the warm-pass hooks must not fire, while the
// result still equals the naive loop's.
func TestContinueFromWindowZeroFiresNoWarmHooks(t *testing.T) {
	bg := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, err := sample.NaiveRun(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sample.Checkpoints(dir, bw.Prog.Name)
	if err != nil || len(paths) < 2 {
		t.Fatalf("checkpoints: %v, %v; want several", paths, err)
	}
	for _, path := range paths[1:] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	var started, done int
	sc := sample.Config{CheckpointDir: dir}
	sc.Hooks.WarmShardStarted = func(int, uint64, uint64) { started++ }
	sc.Hooks.WarmShardDone = func(int, uint64, uint64) { done++ }
	got, err := sample.Continue(bg, bw.Prog, bw.DynLen, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if started != 0 || done != 0 {
		t.Errorf("Continue fired WarmShardStarted %d and WarmShardDone %d times, want 0", started, done)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("continued estimate diverges from the naive loop")
	}
}

// TestContinueCancelledTwoPhaseBitEqual: a checkpointing run writes
// each boundary's checkpoint as it dispatches the window, so a run
// cancelled with windows in flight leaves checkpoints of windows that
// never settled. Continue must re-run them, chaining the feedback from
// window 0: its windows and aggregate equal the naive loop's, and
// afterwards every checkpoint decodes equal to the naive loop's. crafty
// trains its LISP mid-run, so a wrong boot LISP shows there.
func TestContinueCancelledTwoPhaseBitEqual(t *testing.T) {
	bg := context.Background()
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gzip", "crafty"} {
		t.Run(name, func(t *testing.T) {
			testutil.NoLeaks(t)
			bw := buildBench(t, name)
			seqDir := t.TempDir()
			direct, err := sample.NaiveRun(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: seqDir})
			if err != nil {
				t.Fatal(err)
			}
			if len(direct.Windows) < 4 {
				t.Fatalf("only %d windows; want a multi-window run to interrupt", len(direct.Windows))
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			sc := sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 2)}
			sc.Hooks.WindowDone = func(w sample.WindowStat) {
				if w.Index == 1 {
					cancel()
				}
			}
			if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc); err != context.Canceled {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}

			resumed, err := sample.Continue(bg, bw.Prog, bw.DynLen, cfg,
				sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 2)})
			if err != nil {
				t.Fatal(err)
			}
			if len(resumed.Windows) != len(direct.Windows) {
				t.Fatalf("continue produced %d windows, uninterrupted %d", len(resumed.Windows), len(direct.Windows))
			}
			for i := range direct.Windows {
				if !reflect.DeepEqual(direct.Windows[i], resumed.Windows[i]) {
					t.Errorf("window %d differs from the uninterrupted run", i)
				}
			}
			if !reflect.DeepEqual(direct.Agg, resumed.Agg) {
				t.Errorf("aggregate Stats differ:\nuninterrupted: %+v\ncontinued:     %+v", direct.Agg, resumed.Agg)
			}

			want, err := sample.Checkpoints(seqDir, bw.Prog.Name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sample.Checkpoints(dir, bw.Prog.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d checkpoints after Continue, the naive loop wrote %d", len(got), len(want))
			}
			for i := range want {
				a, err := sample.LoadCheckpoint(want[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := sample.LoadCheckpoint(got[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("checkpoint %d after Continue differs from the naive loop's", i)
				}
			}
		})
	}
}

// TestContinueAcrossPresets: a checkpoint holds no LISP, so a set
// written under one integration policy serves every other of the same
// geometry. A +reverse run cancelled after window 1 is finished under
// the no-integration preset, and the set then re-measured under oracle
// suppression; each estimate equals the naive loop's for its own
// policy, bit for bit.
func TestContinueAcrossPresets(t *testing.T) {
	bg := context.Background()
	bw := buildBench(t, "crafty")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	sc := sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 2)}
	sc.Hooks.WindowDone = func(w sample.WindowStat) {
		if w.Index == 1 {
			cancel()
		}
	}
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	for _, o := range []sim.Options{
		{Integration: sim.IntNone},
		{Integration: sim.IntReverse, Suppression: sim.SuppressOracle},
	} {
		cfg, err := o.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sample.NaiveRun(bg, bw.Prog, bw.DynLen, cfg, sample.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sample.Continue(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir, Scheduler: newPool(t, 2)})
		if err != nil {
			t.Fatalf("[%s]: %v", o.Label(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("[%s]: continued estimate diverges from the naive loop's", o.Label())
		}
	}
}

// TestResumeRejectsGap: Continue chains the boot feedback from window
// 0, so a checkpoint set with a window missing cannot be re-run; the
// error names the missing window.
func TestResumeRejectsGap(t *testing.T) {
	bg := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := sample.Run(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	paths, err := sample.Checkpoints(dir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("only %d checkpoints; want a multi-window run", len(paths))
	}
	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	_, err = sample.Continue(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), "missing window 2") {
		t.Fatalf("Continue over a gap returned %v, want an error naming window 2", err)
	}
}

// TestRunCancelsPromptly bounds the cancellation latency of a sampled
// run: a context cancelled before the run starts must surface
// immediately, and one cancelled mid-run must surface well before the
// run would have finished.
func TestRunCancelsPromptly(t *testing.T) {
	bw := buildBench(t, "gzip")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := sample.Run(pre, bw.Prog, bw.DynLen, cfg, sample.Config{}); err != context.Canceled {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled run took %v to return", d)
	}
}

// TestSampledFig4Speedup enforces the sampling acceptance criterion on
// the Figure 4 configuration matrix over the benchmark subset: at least
// 10x less detailed-simulation work than full detail (the
// scale-invariant guarantee — the fraction is independent of trace
// length), measurably faster wall-clock even on these short synthetic
// traces, and headline metrics within the documented bounds.
func TestSampledFig4Speedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-detail fig4 reference runs (~1 minute)")
	}
	ctx := context.Background()
	opts := []sim.Options{{Integration: sim.IntNone}}
	for _, p := range sim.IntegrationPresets() {
		opts = append(opts,
			sim.Options{Integration: p, Suppression: sim.SuppressLISP},
			sim.Options{Integration: p, Suppression: sim.SuppressOracle})
	}

	var fullTime, sampledTime time.Duration
	var totalInstrs, detailedInstrs uint64
	for _, name := range benchSubset {
		bw := buildBench(t, name)
		for _, o := range opts {
			cfg, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			full := fullDetail(t, bw, o)
			fullTime += time.Since(t0)

			t1 := time.Now()
			est, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sampledTime += time.Since(t1)

			totalInstrs += est.TotalInstrs
			detailedInstrs += est.DetailedInstrs
			if ipcErr := abs(est.IPC()/full.IPC() - 1); ipcErr > sample.IPCErrBound {
				t.Errorf("%s [%s]: IPC error %.1f%% exceeds bound", name, o.Label(), 100*ipcErr)
			}
			if rateErr := abs(est.IntegrationRate() - full.IntegrationRate()); rateErr > sample.RateErrBound {
				t.Errorf("%s [%s]: rate error %.2fpp exceeds bound", name, o.Label(), 100*rateErr)
			}
		}
	}

	workRatio := float64(totalInstrs) / float64(detailedInstrs)
	t.Logf("fig4 matrix: detailed work ratio %.1fx, wall-clock %.1fx (full %v, sampled %v)",
		workRatio, fullTime.Seconds()/sampledTime.Seconds(), fullTime, sampledTime)
	if workRatio < 10 {
		t.Errorf("detailed-work reduction %.1fx, want >= 10x", workRatio)
	}
	// Wall-clock on the short synthetic traces carries per-window
	// overhead that amortizes on longer workloads; require a clear win
	// with CI-safe margin rather than the asymptotic ratio.
	if sampledTime*2 >= fullTime {
		t.Errorf("sampled wall-clock %v not at least 2x faster than full %v", sampledTime, fullTime)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
