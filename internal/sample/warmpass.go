package sample

import (
	"context"
	"fmt"
	"sort"
	"sync"

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
// concurrently and still aggregate bit-identically.
//
// The pass itself runs in one of two shapes. The sequential build is a
// single linear scan, optionally recording stride snapshots (strides.go)
// as a byproduct. The sharded build splits the boundary list into
// contiguous spans and hands each to a warm worker that resumes from the
// nearest preceding stride snapshot; because every instruction is warmed
// identically in either shape and the boundary positions are computed
// arithmetically (boundaryStarts) rather than discovered, the sharded
// boundaries are bit-identical to the sequential ones — enforced by the
// parity tests in this package.

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
//
// The warm pass shards across sc.WarmJobs workers when stride
// snapshots are available (Config.Strides, or a .stride entry in
// sc.CacheDir); otherwise it runs sequentially and — when sc.CacheDir
// is set — records a stride set alongside the warm set, so any later
// build for this program and geometry shards, whatever its layout.
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
	var key, skey string
	if sc.CacheDir != "" {
		key = warmKey(p, cfg, sc.Sampling)
		skey = strideKey(p, cfg)
		if set, path := loadWarmSet(sc.CacheDir, key, p.Name, sc.Sampling); set != nil {
			// Re-stamp the entry so the LRU sweep ranks it as hot.
			touchWarmSet(path)
			if sc.Hooks.CacheHit != nil {
				sc.Hooks.CacheHit(path)
			}
			return set, nil
		}
	}

	// Resolve stride snapshots for a sharded build: the injected set
	// first, then the cache. An injected set is validated against the
	// program and geometry by its content-addressed key — the same
	// check a cache load performs by construction.
	str := sc.Strides
	if str != nil {
		if err := validateStrides(str, p, cfg); err != nil {
			return nil, err
		}
	} else if sc.CacheDir != "" {
		if s, path := loadStrideSet(sc.CacheDir, skey, p.Name); s != nil {
			touchWarmSet(path)
			if sc.Hooks.CacheHit != nil {
				sc.Hooks.CacheHit(path)
			}
			str = s
		}
	}

	var set *WarmSet
	var err error
	if str != nil {
		set, err = buildWarmSetSharded(ctx, p, cfg, sc, str)
	} else {
		// No snapshots to resume from: one sequential scan, recording
		// the stride set this build never got to use so the next one
		// (any layout) shards. Recording costs O(resident pages) per
		// stride thanks to the emulator's copy-on-write snapshots.
		var sr *strideRec
		if sc.CacheDir != "" {
			sr = newStrideRec(p, skey, sc.WarmStride)
		}
		set, err = buildWarmSet(ctx, p, cfg, sc, sr)
		if err == nil && sr != nil {
			// Best-effort, like the warm-set save below.
			if path, serr := saveStrideSet(sc.CacheDir, sr.finish(set.Total)); serr == nil {
				if sc.Hooks.CacheWritten != nil {
					sc.Hooks.CacheWritten(path)
				}
				sweepWarmCache(sc.CacheDir, sc.CacheMaxBytes, sc.CacheMaxAge, path)
			}
		}
	}
	if err != nil {
		return nil, err
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

// buildWarmSet is the sequential warm pass. It reproduces the
// sequential engine's fast-forward exactly — including the advance
// through each window's record span, which determines where later
// (jitter-clamped) boundaries land — so every Boundary matches the
// sequential run's checkpoint at the same index. When sc.CheckpointDir
// is set, each boundary is provisionally persisted as it is snapshotted
// (keeping an interrupted two-phase run continuable); the window phase
// later rewrites each file with the validated feedback, converging on
// the exact bytes the sequential engine writes. A non-nil sr records
// stride snapshots along the way.
func buildWarmSet(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config, sr *strideRec) (*WarmSet, error) {
	sp := sc.Sampling
	c := cursor{ctx: ctx, p: p, sc: &sc, e: emu.New(p), w: newWarmer(cfg)}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	set := &WarmSet{Program: p.Name, Sampling: sp}

	for idx := 0; ; idx++ {
		if err := c.seek(idx, windowStart(idx, sp), sr); err != nil {
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
		if err := c.span(n, nil, sr); err != nil {
			return nil, err
		}
	}
	set.Total = c.e.Count
	return set, nil
}

// boundaryStarts computes arithmetically the dynamic instruction
// position of every window boundary the sequential pass would snapshot
// on a trace of total instructions: each window starts at its jittered
// placement, clamped to the end of the previous window's record span,
// and the trace ends — the emulator halts — exactly at total, so a
// boundary exists iff its position lands strictly before it. This is
// the closed form of buildWarmSet's cursor walk, and what lets the
// sharded build assign boundaries to workers without scanning.
func boundaryStarts(sp Sampling, n, total uint64) []uint64 {
	var starts []uint64
	var cursor uint64
	for idx := 0; ; idx++ {
		pos := windowStart(idx, sp)
		if pos < cursor {
			pos = cursor
		}
		if pos >= total {
			return starts
		}
		starts = append(starts, pos)
		cursor = pos + n
	}
}

// buildWarmSetSharded is the sharded warm pass: the boundary list is
// split into contiguous spans, one per worker (at most sc.WarmJobs),
// and each worker resumes from the nearest stride snapshot preceding
// its span and scans linearly through it, warming every instruction and
// snapshotting each boundary — exactly what the sequential scan does
// over that same span, from identical resume state, hence bit-identical
// output. Workers fire Hooks.WarmShardStarted/Done rather than
// Progress (their counts interleave non-monotonically) and write the
// same provisional checkpoints the sequential build writes.
//
// Cancellation ends the build with ctx.Err(); unlike the sequential
// build there is no partial flush (no single frontier exists), but
// provisional checkpoints from completed boundaries remain on disk.
func buildWarmSetSharded(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config, str *StrideSet) (*WarmSet, error) {
	sp := sc.Sampling
	if str.Total > sc.MaxInstrs {
		return nil, fmt.Errorf("sample: %s did not halt within %d instructions", p.Name, sc.MaxInstrs)
	}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	starts := boundaryStarts(sp, n, str.Total)
	set := &WarmSet{Program: p.Name, Sampling: sp, Total: str.Total, Boundaries: make([]Boundary, len(starts))}
	if len(starts) == 0 {
		return set, nil
	}
	shards := sc.WarmJobs
	if shards > len(starts) {
		shards = len(starts)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*len(starts)/shards, (s+1)*len(starts)/shards
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			if err := warmShard(sctx, p, cfg, sc, str, set, shard, starts, lo, hi); err != nil {
				errc <- err
				cancel() // one failed span fails the build; stop the rest
			}
		}(s, lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return set, nil
}

// warmShard runs one worker's span: boundaries starts[lo:hi], resumed
// from the nearest stride snapshot at or before starts[lo] (a fresh
// boot when the span opens the trace). Boundary snapshots land directly
// in set.Boundaries — disjoint indices per shard, so no locking.
func warmShard(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config,
	str *StrideSet, set *WarmSet, shard int, starts []uint64, lo, hi int) error {

	var (
		e      *emu.Emulator
		w      *warmer
		resume uint64
		err    error
	)
	// Strides are sorted by Count; find the last one not past the span.
	if i := sort.Search(len(str.Strides), func(i int) bool { return str.Strides[i].Count > starts[lo] }) - 1; i >= 0 {
		st := &str.Strides[i]
		if e, err = emu.NewFromState(p, st.Emu); err != nil {
			return err
		}
		if w, err = warmerFromSnapshot(cfg, st.Warm); err != nil {
			return err
		}
		resume = st.Count
	} else {
		e = emu.New(p)
		w = newWarmer(cfg)
	}
	if sc.Hooks.WarmShardStarted != nil {
		sc.Hooks.WarmShardStarted(shard, resume, starts[hi-1])
	}
	done := ctx.Done()
	for k := lo; k < hi; k++ {
		for e.Count < starts[k] {
			if done != nil && e.Count&(cancelCheckInterval-1) == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if e.Halted {
				return fmt.Errorf("sample: %s halted at %d instructions, before boundary %d — stale stride set", p.Name, e.Count, k)
			}
			pc := e.PC
			rec, err := e.Step()
			if err != nil {
				return fmt.Errorf("sample: warm shard %d: %w", shard, err)
			}
			w.observe(p.Code[rec.CodeIdx], pc, rec, e.PC)
		}
		b := Boundary{Index: k, Start: starts[k], Emu: e.State(), Warm: w.snapshot()}
		set.Boundaries[k] = b
		if sc.CheckpointDir != "" {
			if _, err := saveBoundary(&sc, p, b, false); err != nil {
				return err
			}
		}
	}
	if sc.Hooks.WarmShardDone != nil {
		sc.Hooks.WarmShardDone(shard, resume, starts[hi-1])
	}
	return nil
}
