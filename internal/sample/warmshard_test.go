package sample_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rix/internal/sample"
	"rix/internal/sim"
)

// TestWarmShardParity is the sharded warm pass's core guarantee,
// mirroring TestParallelEstimateBitEqual one phase earlier: across the
// no-integration baseline and every integration preset, the sharded
// build must produce a WarmSet byte-identical to the sequential pass —
// every boundary position, emulator snapshot, and warm snapshot.
func TestWarmShardParity(t *testing.T) {
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
			seq, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
			if err != nil {
				t.Fatalf("%s [%s] sequential: %v", name, o.Label(), err)
			}
			str, err := sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{})
			if err != nil {
				t.Fatalf("%s [%s] strides: %v", name, o.Label(), err)
			}
			shard, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{Strides: str, WarmJobs: 4})
			if err != nil {
				t.Fatalf("%s [%s] sharded: %v", name, o.Label(), err)
			}
			if !reflect.DeepEqual(shard, seq) {
				t.Errorf("%s [%s]: sharded warm set diverges from sequential", name, o.Label())
			}
		}
	}
}

// TestWarmShardParityProperty drives the sharded build through random
// stride and worker counts — including strides far coarser and finer
// than the interval, worker counts above the boundary count, and
// non-default window layouts — and requires byte-identical WarmSets
// every time. Seeded, so a failure reproduces.
func TestWarmShardParityProperty(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	layouts := []sample.Sampling{
		{},
		{Interval: 8000, Window: 400, Warmup: 200},
		{Interval: 24000, Window: 900, Warmup: 450},
	}
	for trial := 0; trial < 8; trial++ {
		sp := layouts[rng.Intn(len(layouts))]
		stride := uint64(1000 + rng.Intn(40000))
		jobs := 1 + rng.Intn(16)
		seq, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{Sampling: sp})
		if err != nil {
			t.Fatal(err)
		}
		str, err := sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{WarmStride: stride})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{
			Sampling: sp, Strides: str, WarmJobs: jobs,
		})
		if err != nil {
			t.Fatalf("trial %d (stride %d, jobs %d): %v", trial, stride, jobs, err)
		}
		if !reflect.DeepEqual(shard, seq) {
			t.Errorf("trial %d (stride %d, jobs %d, layout %s): sharded warm set diverges",
				trial, stride, jobs, shard.Sampling)
		}
	}
}

// TestWarmShardCheckpointParity: a sharded warm pass with a checkpoint
// directory must leave the same provisional checkpoints the sequential
// pass writes — decoded-equal, file for file.
func TestWarmShardCheckpointParity(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	seqDir, shardDir := t.TempDir(), t.TempDir()
	if _, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{CheckpointDir: seqDir}); err != nil {
		t.Fatal(err)
	}
	str, err := sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{
		CheckpointDir: shardDir, Strides: str, WarmJobs: 4,
	}); err != nil {
		t.Fatal(err)
	}
	seqPaths, err := sample.Checkpoints(seqDir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths, err := sample.Checkpoints(shardDir, bw.Prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqPaths) == 0 || len(seqPaths) != len(shardPaths) {
		t.Fatalf("%d sequential vs %d sharded checkpoints", len(seqPaths), len(shardPaths))
	}
	for i := range seqPaths {
		a, err := sample.LoadCheckpoint(seqPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := sample.LoadCheckpoint(shardPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("checkpoint %s differs between sequential and sharded passes", filepath.Base(seqPaths[i]))
		}
	}
}

// TestWarmShardEndToEnd: a full sampled run whose warm pass shards must
// produce the same Estimate as the fully sequential engine — the parity
// composes through the window phase.
func TestWarmShardEndToEnd(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "crafty")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	str, err := sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{
		Strides: str, WarmJobs: 4, Scheduler: newPool(t, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Error("sharded-warm sampled run diverges from sequential")
	}
}

// TestWarmShardStrideMismatch: a stride set built for a different
// machine geometry (or program) must be rejected by its key, never
// silently warm the wrong machine.
func TestWarmShardStrideMismatch(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	str, err := sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := (sim.Options{Integration: sim.IntNone}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sample.PrepareWarm(ctx, bw.Prog, other, sample.Config{Strides: str, WarmJobs: 2}); err == nil {
		t.Error("stride set for another geometry accepted")
	}
	bw2 := buildBench(t, "crafty")
	if _, err := sample.PrepareWarm(ctx, bw2.Prog, cfg, sample.Config{Strides: str, WarmJobs: 2}); err == nil {
		t.Error("stride set for another program accepted")
	}
}

// TestWarmShardSharedCacheStress is the -race stress test: many
// concurrent sampled runs sharing one cache directory and one injected
// stride set, all sharding their warm passes at once. Every estimate
// must match the sequential baseline; the race detector (go test -race)
// checks the warm workers' sharing of the stride snapshots and the
// copy-on-write emulator pages.
func TestWarmShardSharedCacheStress(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	benches := []string{"gzip", "crafty"}
	cfg, err := (sim.Options{Integration: sim.IntReverse}).Config()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]*sample.Estimate, len(benches))
	strs := make([]*sample.StrideSet, len(benches))
	for i, name := range benches {
		bw := buildBench(t, name)
		if seqs[i], err = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{}); err != nil {
			t.Fatal(err)
		}
		if strs[i], err = sample.PrepareStrides(ctx, bw.Prog, cfg, sample.Config{}); err != nil {
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
			sc := sample.Config{CacheDir: dir, Scheduler: newPool(t, 2), WarmJobs: 3, Strides: strs[i]}
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
			t.Errorf("run %d: concurrent sharded estimate diverges from sequential", k)
		}
	}
}
