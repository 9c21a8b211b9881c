package sample

import (
	"context"
	"fmt"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the warm pass: the one functional fast-forward over the
// trace, in index order, that stops at every window boundary. Each
// boundary is exactly the state the window needs to run on its own, so
// the window coordinator (parallel.go) can execute windows
// concurrently and still aggregate bit-identically. The pass is a
// boundary source the coordinator pulls as it goes (liveSource); a
// WarmSet is the same pass drained into memory, for injection
// (Config.Warm) and the content-addressed cache.

// WarmSet is the warm pass's output: every window boundary of one
// (program, window layout, warm-relevant machine geometry) triple. A
// WarmSet is read-only once built; concurrent runs may share it
// (Config.Warm), and the content-addressed cache (cache.go) persists it
// across processes. It holds no LISP: DIVA feedback is discovered only
// by detailed windows, and the coordinator chains it itself
// (WindowJob.Feedback), so one set serves every integration policy.
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
// pass — saved back into the cache when sc.CacheDir is set. It writes
// no checkpoints: those are written as a run hands its boundaries to
// windows. Callers that run the same cell repeatedly (benchmarks,
// figure regeneration) can prepare once and inject the set via
// Config.Warm to skip the warm pass on every run.
func PrepareWarm(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*WarmSet, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	src, err := openSource(ctx, p, cfg, &sc)
	if err != nil {
		return nil, err
	}
	if src.e == nil {
		return src.set, nil
	}
	return src.drain()
}

// openSource picks a run's boundary source: the injected warm set, a
// cache hit, or else a live warm pass from the program entry. On a
// cache miss the pass is drained into a set and saved first, so the
// next run hits.
func openSource(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc *Config) (*source, error) {
	stored := func(set *WarmSet) *source { return &source{set: set, p: p, sc: sc} }
	if set := sc.Warm; set != nil {
		if set.Program != p.Name {
			return nil, fmt.Errorf("sample: warm set is for %q, not %q", set.Program, p.Name)
		}
		if set.Sampling != sc.Sampling {
			return nil, fmt.Errorf("sample: warm set layout %s does not match requested %s",
				set.Sampling, sc.Sampling)
		}
		return stored(set), nil
	}
	pass := func() (*source, error) {
		wp, err := coldParts(cfg)
		if err != nil {
			return nil, err
		}
		return newPass(ctx, p, cfg, sc, emu.New(p), newWarmer(cfg, wp), 0, true), nil
	}
	if sc.CacheDir == "" {
		return pass()
	}
	key := warmKey(p, cfg, sc.Sampling)
	if set, path := loadWarmSet(sc.CacheDir, key, p.Name, sc.Sampling); set != nil {
		if sc.Hooks.CacheHit != nil {
			sc.Hooks.CacheHit(path)
		}
		return stored(set), nil
	}
	src, err := pass()
	if err != nil {
		return nil, err
	}
	set, err := src.drain()
	if err != nil {
		return nil, err
	}
	// Best-effort: a failed save costs the next run a warm pass, not
	// this run its result.
	if path, err := saveWarmSet(sc.CacheDir, key, set); err == nil {
		if sc.Hooks.CacheWritten != nil {
			sc.Hooks.CacheWritten(path)
		}
	}
	return stored(set), nil
}

// source feeds the coordinator a run's window boundaries in index
// order: the stored ones first (a warm set, or Continue's
// checkpoints), then — when e is set — those the live warm pass
// reaches. The pass is pulled by the coordinator goroutine: while the
// dispatched windows run, it fast-forwards to the following boundary
// and parks there (peek), and a fetch copies the boundary into a ring
// entry. The coordinator holds at most depth entries and hands each back
// as its window settles, so a refill allocates nothing, copies only the
// cache sets that changed since the entry last matched the warmer, and
// the pass never materializes its boundaries. A run that writes
// checkpoints writes each boundary once, whatever its source, as fetch
// hands it out. The warmer's tables and the entries come from the
// warm-parts pool and go back to it when the run ends (release).
type source struct {
	set *WarmSet      // stored boundaries; nil when there are none
	p   *prog.Program // the program the boundaries belong to
	sc  *Config       // the run's configuration: layout, checkpoint directory, hooks

	// The live warm pass, if any: the emulator executes each instruction
	// and the warmer folds it in.
	ctx   context.Context
	e     *emu.Emulator
	w     *warmer
	cfg   pipeline.Config
	hooks bool         // a pass from the program entry: fires the WarmShard hooks
	idx   int          // index of the boundary the pass stands at, or reaches next
	at    bool         // the pass stands at boundary idx (or the halt), its window's record span ahead
	taken bool         // boundary idx is in a ring entry already
	last  uint64       // the last boundary's start
	ring  int          // entries taken from the pool: the most the coordinator held at once
	free  []*liveEntry // entries ready to refill; the coordinator hands each back as its window settles
}

// liveEntry is one ring entry: a boundary whose Warm carries only the
// touch cursor, the tables living in parts.
type liveEntry struct {
	b     Boundary
	parts *warmParts
}

// frame is one fetched boundary as the coordinator holds it: a stored
// Boundary, or a live ring entry whose tables stand in for b.Warm's.
type frame struct {
	b     *Boundary
	entry *liveEntry
}

// newPass starts a live warm pass at boundary idx from an emulator and
// warmer: the program entry for Run (fromEntry), a checkpoint's
// restored state for Continue. A pass from the program entry fires
// WarmShardStarted now and WarmShardDone when it reaches the halt;
// Continue's resumed pass fires neither, whatever its index.
func newPass(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc *Config,
	e *emu.Emulator, w *warmer, idx int, fromEntry bool) *source {

	s := &source{ctx: ctx, p: p, sc: sc, e: e, w: w, cfg: cfg, idx: idx, hooks: fromEntry}
	if s.hooks && sc.Hooks.WarmShardStarted != nil {
		sc.Hooks.WarmShardStarted(0, 0, 0)
	}
	return s
}

// peek reports whether boundary j — asked for in order, j = 0, 1, 2,
// ... — exists, bringing the live pass to it when it is the pass's.
func (s *source) peek(j int) (bool, error) {
	if s.set != nil && j < len(s.set.Boundaries) {
		return true, nil
	}
	if s.e == nil {
		return false, nil
	}
	if !s.at || s.taken {
		if err := s.advance(); err != nil {
			return false, err
		}
	}
	return !s.e.Halted, nil
}

// fetch returns boundary j (as peek orders them), or false once the
// trace has no more. When the run writes checkpoints, it persists the
// boundary as window j's checkpoint before handing it out: the one
// place a checkpoint is written.
func (s *source) fetch(j int) (frame, bool, error) {
	if ok, err := s.peek(j); !ok || err != nil {
		return frame{}, false, err
	}
	var f frame
	if s.set != nil && j < len(s.set.Boundaries) {
		f.b = &s.set.Boundaries[j]
	} else {
		s.taken = true
		if len(s.free) == 0 {
			s.free, s.ring = append(s.free, &liveEntry{parts: getParts(s.cfg)}), s.ring+1
		}
		en := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		f.b, f.entry = &en.b, en
		if err := s.fill(en); err != nil {
			return f, true, err
		}
	}
	if s.sc.CheckpointDir != "" {
		b := *f.b
		if f.entry != nil {
			f.entry.parts.snapshot(&b.Warm)
		}
		path, err := saveBoundary(s.sc, s.p, b)
		if err != nil {
			return f, true, err
		}
		if s.sc.Hooks.CheckpointWritten != nil {
			s.sc.Hooks.CheckpointWritten(path, j)
		}
	}
	return f, true, nil
}

// advance moves the pass to its next window boundary — on through the
// record span of the one it stands at, still warming, since the span
// decides where later (jitter-clamped) boundaries land — or to the
// halt.
func (s *source) advance() error {
	sp := s.sc.Sampling
	if s.at {
		if err := s.seek(s.e.Count + sp.Warmup + sp.Window + detailPad(s.cfg)); err != nil {
			return err
		}
		s.idx++
	}
	if err := s.seek(windowStart(s.idx, sp)); err != nil {
		return err
	}
	s.at, s.taken = true, false
	if s.e.Halted {
		if s.hooks && s.sc.Hooks.WarmShardDone != nil {
			s.sc.Hooks.WarmShardDone(0, 0, s.last)
		}
		return nil
	}
	s.last = s.e.Count
	return nil
}

// fill copies the boundary the pass stands at into en, reusing en's
// storage.
func (s *source) fill(en *liveEntry) error {
	e, w := s.e, s.w
	en.b.Index, en.b.Start = s.idx, e.Count
	e.StateInto(&en.b.Emu)
	en.b.Warm.LastLine = w.lastLine
	return en.parts.copyFrom(w.warmParts)
}

// release hands the pass's warmer and idle ring entries back to the
// pool once the run is done with them. An entry a failed run never got
// back is left to the garbage collector.
func (s *source) release() {
	for _, en := range s.free {
		putParts(en.parts)
	}
	s.free = nil
	if s.w != nil {
		putParts(s.w.warmParts)
		s.w = nil
	}
}

// drain runs the rest of the pass into a WarmSet of deep copies and
// releases it.
func (s *source) drain() (*WarmSet, error) {
	defer s.release()
	set := &WarmSet{Program: s.p.Name, Sampling: s.sc.Sampling}
	for {
		if err := s.advance(); err != nil {
			return nil, err
		}
		if s.e.Halted {
			set.Total = s.e.Count
			return set, nil
		}
		set.Boundaries = append(set.Boundaries, s.boundary(s.idx))
	}
}
