package sample

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/workload"
)

// TestConcurrentSaveSameKey: cells that race to save one cache key (or
// one checkpoint file) must each install a complete file. Every save
// succeeds, every load right after a save finds a valid entry, and no
// temporary file is left behind.
func TestConcurrentSaveSameKey(t *testing.T) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := bw.Prog
	cfg := pipeline.DefaultConfig()
	cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}
	sc, err := Config{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	set, err := PrepareWarm(context.Background(), p, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc.CheckpointDir = dir
	key := warmKey(p, cfg, sc.Sampling)

	const writers, saves = 4, 10
	var saveErrs, misses atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				if _, err := saveWarmSet(dir, key, set); err != nil {
					t.Log(err)
					saveErrs.Add(1)
				} else if got, _ := loadWarmSet(dir, key, p.Name, sc.Sampling); got == nil {
					misses.Add(1)
				}
				path, err := saveBoundary(&sc, p, set.Boundaries[0], false)
				if err != nil {
					t.Log(err)
					saveErrs.Add(1)
				} else if _, err := LoadCheckpoint(path); err != nil {
					t.Log(err)
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if saveErrs.Load() != 0 || misses.Load() != 0 {
		t.Errorf("%d of %d saves failed, %d loads missed", saveErrs.Load(), 2*writers*saves, misses.Load())
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}
