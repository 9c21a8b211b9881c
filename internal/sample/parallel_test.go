package sample_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/testutil"
)

// TestParallelEstimateBitEqual is the engine's core guarantee: across
// the no-integration baseline and every integration preset, on both a
// feedback-quiescent workload (gzip) and one whose LISP trains mid-run
// (crafty, exercising the misspeculation path), the Estimate on a
// one-slot and on a four-slot pool must equal the naive sequential
// loop's (NaiveRun) bit-for-bit.
func TestParallelEstimateBitEqual(t *testing.T) {
	ctx := context.Background()
	opts := []sim.Options{{Integration: sim.IntNone}}
	for _, p := range sim.IntegrationPresets() {
		opts = append(opts, sim.Options{Integration: p})
	}
	for _, name := range []string{"gzip", "crafty"} {
		bw := buildBench(t, name)
		for _, o := range opts {
			cfg, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatalf("%s [%s] sequential: %v", name, o.Label(), err)
			}
			one, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatalf("%s [%s] one slot: %v", name, o.Label(), err)
			}
			pool := sample.NewScheduler(4)
			par, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: pool})
			pool.Close()
			if err != nil {
				t.Fatalf("%s [%s] parallel: %v", name, o.Label(), err)
			}
			if !reflect.DeepEqual(one, seq) {
				t.Errorf("%s [%s]: one-slot Estimate diverges from the naive loop", name, o.Label())
			}
			if !reflect.DeepEqual(par, seq) {
				t.Errorf("%s [%s]: parallel Estimate diverges from the naive loop", name, o.Label())
			}
		}
	}
}

// TestSharedSchedulerBitEqual drives two concurrent sampled runs
// through one shared slot pool — the cross-cell scheduler the
// runner engine uses — and requires both estimates bit-identical to
// their naive-loop counterparts. It also pins the wave-telemetry
// invariant: every dispatched window is either settled or discarded,
// and the counts are deterministic (the coordinator's dispatch/settle
// interleaving does not depend on slot timing).
func TestSharedSchedulerBitEqual(t *testing.T) {
	testutil.NoLeaks(t)
	ctx := context.Background()
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	benches := []string{"gzip", "crafty"}
	seq := make([]*sample.Estimate, len(benches))
	for i, name := range benches {
		bw := buildBench(t, name)
		if seq[i], err = sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{}); err != nil {
			t.Fatal(err)
		}
	}

	type tally struct{ scheduled, settled, discarded, returned int32 }
	run := func() ([]*sample.Estimate, []tally) {
		sched := sample.NewScheduler(3)
		defer sched.Close()
		ests := make([]*sample.Estimate, len(benches))
		tallies := make([]tally, len(benches))
		errs := make([]error, len(benches))
		var wg sync.WaitGroup
		for i, name := range benches {
			bw := buildBench(t, name)
			tl := &tallies[i]
			sc := sample.Config{Scheduler: sched, Hooks: sample.Hooks{
				WindowScheduled: func(int) { tl.scheduled++ },
				WindowDone:      func(sample.WindowStat) { tl.settled++ },
				WindowDiscarded: func(int) { tl.discarded++ },
				SlotReturned:    func(int) { tl.returned++ },
			}}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ests[i], errs[i] = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", benches[i], err)
			}
		}
		return ests, tallies
	}

	ests, tallies := run()
	for i, name := range benches {
		if !reflect.DeepEqual(ests[i], seq[i]) {
			t.Errorf("%s: shared-scheduler estimate diverges from the naive loop", name)
		}
		tl := tallies[i]
		if tl.scheduled != tl.settled+tl.discarded {
			t.Errorf("%s: %d dispatched != %d settled + %d discarded", name, tl.scheduled, tl.settled, tl.discarded)
		}
		if tl.settled != int32(len(ests[i].Windows)) {
			t.Errorf("%s: %d settled vs %d windows", name, tl.settled, len(ests[i].Windows))
		}
		if tl.returned == 0 {
			t.Errorf("%s: no SlotReturned events", name)
		}
	}
	// Determinism of the telemetry counters across a rerun.
	_, again := run()
	for i, name := range benches {
		if again[i].scheduled != tallies[i].scheduled || again[i].discarded != tallies[i].discarded {
			t.Errorf("%s: telemetry not deterministic: %+v vs %+v", name, again[i], tallies[i])
		}
	}
}

// TestWarmCacheRoundTrip drives the content-addressed cache through a
// miss (warm pass runs, .warmset entry written), a hit (warm pass
// skipped, bit-identical estimate), and the invalidation rules: a
// layout change keys a different entry, and a corrupt entry is a clean
// miss that gets rewritten. The warm-pass hooks bracket every pass
// actually built, and only those.
func TestWarmCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	seq, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Hits, writes and warm passes; lastWarm is the most recently
	// written entry, lastEnd the last pass's reported span end.
	var hits, writes, passes, passesDone int
	var lastWarm string
	var lastEnd uint64
	reset := func() { hits, writes, passes, passesDone = 0, 0, 0, 0 }
	sc := sample.Config{CacheDir: dir, Scheduler: newPool(t, 2), Hooks: sample.Hooks{
		CacheHit: func(string) { hits++ },
		CacheWritten: func(path string) {
			writes++
			lastWarm = path
		},
		WarmShardStarted: func(shard int, start, end uint64) {
			if shard != 0 || start != 0 || end != 0 {
				t.Errorf("WarmShardStarted(%d, %d, %d); want (0, 0, 0)", shard, start, end)
			}
			passes++
		},
		WarmShardDone: func(shard int, start, end uint64) {
			if shard != 0 || start != 0 {
				t.Errorf("WarmShardDone(%d, %d, _); want shard 0 from 0", shard, start)
			}
			passesDone++
			lastEnd = end
		},
	}}
	first, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || writes != 1 || passes != 1 || passesDone != 1 {
		t.Fatalf("cold run: %d hits, %d writes, %d/%d warm passes; want 0, 1, 1/1", hits, writes, passes, passesDone)
	}
	if w := first.Windows[len(first.Windows)-1]; lastEnd != w.Start {
		t.Errorf("warm pass span ends at %d; want the last boundary, %d", lastEnd, w.Start)
	}
	if !reflect.DeepEqual(first, seq) {
		t.Error("cached-miss run diverges from the naive loop")
	}

	second, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 || writes != 1 || passes != 1 {
		t.Fatalf("warm run: %d hits, %d writes, %d warm passes; want 1, 1, 1", hits, writes, passes)
	}
	if !reflect.DeepEqual(second, seq) {
		t.Error("cache-hit run diverges from the naive loop")
	}

	// A different window layout must key a different entry.
	spp := sample.Sampling{Interval: 8000, Window: 400, Warmup: 200}
	scLayout := sc
	scLayout.Sampling = spp
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, scLayout); err != nil {
		t.Fatal(err)
	}
	if hits != 1 || writes != 2 || passes != 2 {
		t.Fatalf("layout change: %d hits, %d writes, %d warm passes; want 1, 2, 2", hits, writes, passes)
	}

	// A corrupt entry is a miss: the run still succeeds, rewrites the
	// entry, and a following run hits it again.
	if err := os.WriteFile(lastWarm, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.warmset"))
	if len(entries) != 2 {
		t.Fatalf("%d warmset entries; want 2", len(entries))
	}
	reset()
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, scLayout); err != nil {
		t.Fatal(err)
	}
	if hits != 0 || writes != 1 || passes != 1 {
		t.Fatalf("corrupt entry: %d hits, %d writes, %d warm passes; want 0, 1, 1", hits, writes, passes)
	}
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, scLayout); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("rewritten entry: %d warmset hits; want 1", hits)
	}
}

// TestSharedCacheStress is the -race stress test: many concurrent
// sampled runs sharing one cache directory, racing to build, save and
// load the same warm-set entries. Every estimate must match the
// naive-loop baseline, and no goroutine may outlive the test.
func TestSharedCacheStress(t *testing.T) {
	testutil.NoLeaks(t)
	ctx := context.Background()
	dir := t.TempDir()
	benches := []string{"gzip", "crafty"}
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]*sample.Estimate, len(benches))
	for i, name := range benches {
		bw := buildBench(t, name)
		if seqs[i], err = sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	const runsPerBench = 3
	var wg sync.WaitGroup
	errs := make([]error, len(benches)*runsPerBench)
	ests := make([]*sample.Estimate, len(benches)*runsPerBench)
	for i, name := range benches {
		for r := 0; r < runsPerBench; r++ {
			bw := buildBench(t, name)
			k := i*runsPerBench + r
			sc := sample.Config{CacheDir: dir, Scheduler: newPool(t, 2)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ests[k], errs[k] = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
			}()
		}
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if !reflect.DeepEqual(ests[k], seqs[k/runsPerBench]) {
			t.Errorf("run %d: concurrent cached estimate diverges from the naive loop", k)
		}
	}
}

// TestPrepareWarmInjection proves the Config.Warm fast path: a
// prepared warm set injected into Run skips the warm pass (no cache
// involved) and reproduces the naive loop's estimate bit-for-bit.
func TestPrepareWarmInjection(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Boundaries) < 4 {
		t.Fatalf("only %d boundaries; want a multi-window run", len(warm.Boundaries))
	}
	seq, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: newPool(t, 4), Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Error("warm-injected parallel run diverges from the naive loop")
	}
	// Rejects a mismatched layout rather than silently misusing the set.
	bad := sample.Config{Warm: warm, Sampling: sample.Sampling{Interval: 8000, Window: 400, Warmup: 200}}
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, bad); err == nil {
		t.Error("mismatched warm-set layout accepted")
	}
}

// TestCheckpointErrorsNameFile: a layout mismatch or unreadable entry
// in a checkpoint set must be reported with the offending file's path —
// a set holds dozens of files and "some checkpoint was bad" is not
// actionable.
func TestCheckpointErrorsNameFile(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	paths, err := sample.Checkpoints(dir, bw.Prog.Name)
	if err != nil || len(paths) < 2 {
		t.Fatalf("checkpoints: %v (%d files)", err, len(paths))
	}

	mismatch := sample.Config{CheckpointDir: dir, Sampling: sample.Sampling{Interval: 8000, Window: 400, Warmup: 200}}
	_, err = sample.Continue(ctx, bw.Prog, bw.DynLen, cfg, mismatch)
	if err == nil || !strings.Contains(err.Error(), filepath.Base(paths[len(paths)-1])) {
		t.Errorf("layout-mismatch error does not name the checkpoint file: %v", err)
	}

	if err := os.WriteFile(paths[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = sample.Continue(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(paths[0])) {
		t.Errorf("corrupt-checkpoint error does not name the file: %v", err)
	}
}

// TestParallelCheckpointParity: a parallel run with a checkpoint
// directory must leave checkpoints equal to the naive loop's, each
// written once as its boundary leaves the ring for its window. Compared
// decoded, not byte-wise: gob's map encoding makes the file bytes
// nondeterministic even across two runs of the same loop.
func TestParallelCheckpointParity(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	o := sim.Options{Integration: sim.IntReverse}
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	seqDir, parDir := t.TempDir(), t.TempDir()
	if _, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: seqDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: parDir, Scheduler: newPool(t, 4)}); err != nil {
		t.Fatal(err)
	}
	seqPaths, err := sample.Checkpoints(seqDir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	parPaths, err := sample.Checkpoints(parDir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqPaths) == 0 || len(seqPaths) != len(parPaths) {
		t.Fatalf("%d naive vs %d parallel checkpoints", len(seqPaths), len(parPaths))
	}
	for i := range seqPaths {
		a, err := sample.LoadCheckpoint(seqPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := sample.LoadCheckpoint(parPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("checkpoint %s differs between the naive loop and the parallel run", filepath.Base(seqPaths[i]))
		}
	}
}

// TestStoredBoundariesWriteCheckpoints: a checkpointing run writes one
// checkpoint per window whatever its boundaries come from — an injected
// warm set, a cache miss or a cache hit — each decoding equal to the
// one a live warm pass writes, while PrepareWarm writes none.
func TestStoredBoundariesWriteCheckpoints(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	liveDir := t.TempDir()
	want, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: liveDir, Scheduler: newPool(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := sample.Checkpoints(liveDir, bw.Prog.Name)
	if err != nil || len(live) != len(want.Windows) || len(live) < 4 {
		t.Fatalf("live run: %d checkpoints for %d windows (%v); want one each, several", len(live), len(want.Windows), err)
	}

	cacheDir, prepDir := t.TempDir(), t.TempDir()
	warm, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{CheckpointDir: prepDir})
	if err != nil {
		t.Fatal(err)
	}
	if paths, _ := sample.Checkpoints(prepDir, bw.Prog.Name); len(paths) != 0 {
		t.Errorf("PrepareWarm wrote %d checkpoints, want none", len(paths))
	}
	for _, c := range []struct {
		name string
		sc   sample.Config
		hits int
	}{
		{"warm", sample.Config{Warm: warm}, 0},
		{"cache-miss", sample.Config{CacheDir: cacheDir}, 0},
		{"cache-hit", sample.Config{CacheDir: cacheDir}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var hits int
			var written []int
			sc := c.sc
			sc.CheckpointDir, sc.Scheduler = t.TempDir(), newPool(t, 2)
			sc.Hooks.CacheHit = func(string) { hits++ }
			sc.Hooks.CheckpointWritten = func(_ string, idx int) { written = append(written, idx) }
			got, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if hits != c.hits {
				t.Errorf("%d cache hits, want %d", hits, c.hits)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("estimate diverges from the live run's")
			}
			for i, idx := range written {
				if idx != i || i >= len(live) {
					t.Fatalf("CheckpointWritten fired for windows %v; want each of %d once, in order", written, len(live))
				}
			}
			paths, err := sample.Checkpoints(sc.CheckpointDir, bw.Prog.Name)
			if err != nil || len(paths) != len(live) || len(written) != len(live) {
				t.Fatalf("%d checkpoints, %d written hooks (%v); want %d", len(paths), len(written), err, len(live))
			}
			for i := range live {
				a, err := sample.LoadCheckpoint(live[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := sample.LoadCheckpoint(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("checkpoint %s differs from the live run's", filepath.Base(paths[i]))
				}
			}
		})
	}
}

// TestWarmCacheSharedAcrossPresets: a warm set holds nothing of the
// integration policy, so Fig. 4's nine sampled configurations of one
// program share a single cache entry: the first fills it, the other
// eight hit it.
func TestWarmCacheSharedAcrossPresets(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	opts := []sim.Options{{Integration: sim.IntNone}}
	for _, p := range sim.IntegrationPresets() {
		opts = append(opts,
			sim.Options{Integration: p, Suppression: sim.SuppressLISP},
			sim.Options{Integration: p, Suppression: sim.SuppressOracle})
	}
	if len(opts) != 9 {
		t.Fatalf("%d Fig. 4 configurations, want 9", len(opts))
	}
	dir := t.TempDir()
	var hits, writes int
	sc := sample.Config{CacheDir: dir, Hooks: sample.Hooks{
		CacheHit:     func(string) { hits++ },
		CacheWritten: func(string) { writes++ },
	}}
	for _, o := range opts {
		cfg, err := o.Config()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sc); err != nil {
			t.Fatalf("[%s]: %v", o.Label(), err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.warmset"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || writes != 1 || hits != len(opts)-1 {
		t.Errorf("%d .warmset entries, %d writes, %d hits; want 1, 1, %d", len(entries), writes, hits, len(opts)-1)
	}
}

// newPool returns an n-slot window scheduler that is closed when the
// test ends.
func newPool(t testing.TB, n int) *sample.Scheduler {
	s := sample.NewScheduler(n)
	t.Cleanup(s.Close)
	return s
}
