package sample

import (
	"context"
	"fmt"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the first phase of the two-phase sampled engine: a
// functional fast-forward over the whole trace that snapshots the
// emulator and warm state at every window boundary. The boundaries are
// mutually independent by construction — each one is exactly the
// checkpoint the sequential engine would have written there — so the
// second phase (parallel.go) can execute all detail windows
// concurrently and still aggregate bit-identically. The pass is one
// linear scan in index order, the same cursor walk as the sequential
// engine's fast-forward.

// WarmSet is the warm pass's output: every window boundary of one
// (program, window layout, warm-relevant machine geometry) triple. A
// WarmSet is read-only once built; concurrent runs may share it
// (Config.Warm), and the content-addressed cache (cache.go) persists it
// across processes. The boundary snapshots carry the warmer's LISP as
// of the warm pass — untrained — because DIVA feedback is discovered
// only by detailed windows; the scheduler substitutes the chained
// feedback at boot time.
type WarmSet struct {
	Program    string
	Sampling   Sampling
	Total      uint64 // dynamic instruction count at program halt
	Boundaries []Boundary
}

// Boundary is one window's self-contained starting state.
type Boundary struct {
	Index int
	Start uint64 // dynamic instruction of the detailed (warmup) start
	Emu   emu.State
	Warm  WarmSnapshot
}

// PrepareWarm returns the warm set for (p, cfg, sc): the injected
// sc.Warm when present, else a cache load (sc.CacheDir), else one warm
// pass — saved back into the cache when sc.CacheDir is set. Callers
// that run the same cell repeatedly (benchmarks, figure regeneration)
// can prepare once and inject the set via Config.Warm to skip the warm
// pass on every run.
func PrepareWarm(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*WarmSet, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	return prepareWarm(ctx, p, cfg, sc)
}

// prepareWarm is PrepareWarm over an already-normalized Config.
func prepareWarm(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*WarmSet, error) {
	if sc.Warm != nil {
		if sc.Warm.Program != p.Name {
			return nil, fmt.Errorf("sample: warm set is for %q, not %q", sc.Warm.Program, p.Name)
		}
		if sc.Warm.Sampling != sc.Sampling {
			return nil, fmt.Errorf("sample: warm set layout %s does not match requested %s",
				sc.Warm.Sampling, sc.Sampling)
		}
		return sc.Warm, nil
	}
	var key string
	if sc.CacheDir != "" {
		key = warmKey(p, cfg, sc.Sampling)
		if set, path := loadWarmSet(sc.CacheDir, key, p.Name, sc.Sampling); set != nil {
			// Re-stamp the entry so the LRU sweep ranks it as hot.
			touchWarmSet(path)
			if sc.Hooks.CacheHit != nil {
				sc.Hooks.CacheHit(path)
			}
			return set, nil
		}
	}
	if sc.Hooks.WarmShardStarted != nil {
		sc.Hooks.WarmShardStarted(0, 0, 0)
	}
	set, err := buildWarmSet(ctx, p, cfg, sc)
	if err != nil {
		return nil, err
	}
	if sc.Hooks.WarmShardDone != nil {
		var end uint64
		if n := len(set.Boundaries); n > 0 {
			end = set.Boundaries[n-1].Start
		}
		sc.Hooks.WarmShardDone(0, 0, end)
	}
	if sc.CacheDir != "" {
		// Best-effort: a failed save costs the next run a warm pass, not
		// this run its result.
		if path, err := saveWarmSet(sc.CacheDir, key, set); err == nil {
			if sc.Hooks.CacheWritten != nil {
				sc.Hooks.CacheWritten(path)
			}
			sweepWarmCache(sc.CacheDir, sc.CacheMaxBytes, sc.CacheMaxAge, path)
		}
	}
	return set, nil
}

// buildWarmSet is the warm pass. It reproduces the sequential engine's
// fast-forward exactly — including the advance through each window's
// record span, which determines where later (jitter-clamped) boundaries
// land — so every Boundary matches the sequential run's checkpoint at
// the same index. When sc.CheckpointDir is set, each boundary is
// provisionally persisted as it is snapshotted (keeping an interrupted
// two-phase run continuable); the window phase later rewrites each file
// with the validated feedback, converging on the exact bytes the
// sequential engine writes.
func buildWarmSet(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*WarmSet, error) {
	sp := sc.Sampling
	c := cursor{ctx: ctx, p: p, sc: &sc, e: emu.New(p), w: newWarmer(cfg)}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	set := &WarmSet{Program: p.Name, Sampling: sp}

	for idx := 0; ; idx++ {
		if err := c.seek(idx, windowStart(idx, sp)); err != nil {
			return nil, err
		}
		if c.e.Halted {
			break
		}
		b := c.boundary(idx)
		set.Boundaries = append(set.Boundaries, b)
		if sc.CheckpointDir != "" {
			// CheckpointWritten fires on the authoritative settle-time
			// rewrite, not this provisional write.
			if _, err := saveBoundary(&sc, p, b, false); err != nil {
				return nil, err
			}
		}
		// Advance through the window's record span, still warming, to
		// where the sequential engine's next boundary search starts.
		if err := c.span(n, nil); err != nil {
			return nil, err
		}
	}
	set.Total = c.e.Count
	return set, nil
}
