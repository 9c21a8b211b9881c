package sample

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// CheckpointFormat versions the on-disk checkpoint encoding. Bump it
// whenever Checkpoint, WarmSnapshot, emu.State or any of the embedded
// state structs change shape; loads reject other versions.
// doc/FORMATS.md is the authoritative field-by-field description and
// version history — keep it in lockstep with any change here.
const CheckpointFormat = 2

// Checkpoint is everything one measurement window needs to run in
// isolation: the emulator's architectural state at the window's
// detailed start and the warmed microarchitectural state at the same
// boundary (doc/FORMATS.md). The warm snapshot includes the LISP
// feedback chained from the windows already run, which is specific to
// the machine configuration that produced it — so a checkpoint set
// belongs to one configuration; keep one directory per config.
// RunCheckpoint validates the window layout but cannot detect a
// policy mismatch.
type Checkpoint struct {
	Format   int
	Program  string
	Index    int
	Start    uint64 // dynamic instruction of the detailed (warmup) start
	Partial  bool   // mid-fast-forward cancellation flush: Start is NOT a window boundary
	Sampling Sampling
	Emu      emu.State
	Warm     WarmSnapshot
}

// checkpointName names a window's file. The zero-padded index keeps
// lexical directory order equal to window order.
func checkpointName(program string, idx int) string {
	return fmt.Sprintf("%s-w%05d.ckpt", program, idx)
}

// SaveCheckpoint atomically writes a checkpoint into dir (created if
// missing), returning its path. A crash mid-write leaves no partial
// file (writeGobAtomic). A partial (cancellation) checkpoint shares its
// window's file name, so the boundary checkpoint written when Continue
// reaches the window start replaces it.
func SaveCheckpoint(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sample: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, checkpointName(ck.Program, ck.Index))
	if err := writeGobAtomic(path, ck); err != nil {
		return "", fmt.Errorf("sample: checkpoint %s: %w", path, err)
	}
	return path, nil
}

// writeGobAtomic gob-encodes v into path: the payload lands in a
// uniquely named temporary file beside path and is renamed into place.
// A crash mid-write leaves no partial file, and concurrent writers of
// one path never share a temporary file, so each rename installs one
// writer's complete payload.
func writeGobAtomic(path string, v any) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 would hide a shared cache from other users
	if err == nil {
		err = gob.NewEncoder(f).Encode(v)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// LoadCheckpoint reads and validates one checkpoint file: the format
// version must match this build's and the recorded window layout must
// be internally valid. Every rejection names the offending file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sample: checkpoint: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("sample: checkpoint %s: %w", path, err)
	}
	if ck.Format != CheckpointFormat {
		return nil, fmt.Errorf("sample: checkpoint %s has format %d, want %d", path, ck.Format, CheckpointFormat)
	}
	if err := ck.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("sample: checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

// Checkpoints lists a program's checkpoint files in window order.
func Checkpoints(dir, program string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, program+"-w*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// saveBoundary persists boundary b of p's run, under sc's window
// layout, into sc.CheckpointDir; partial marks a cancellation flush.
func saveBoundary(sc *Config, p *prog.Program, b Boundary, partial bool) (string, error) {
	return SaveCheckpoint(sc.CheckpointDir, &Checkpoint{
		Format:   CheckpointFormat,
		Program:  p.Name,
		Index:    b.Index,
		Start:    b.Start,
		Partial:  partial,
		Sampling: sc.Sampling,
		Emu:      b.Emu,
		Warm:     b.Warm,
	})
}

// RunCheckpoint executes one measurement window from its checkpoint —
// the sharding primitive: any process holding the program and one
// checkpoint file can produce that window's Stats, bit-identical to the
// direct sampled run's. The window boots with the LISP the checkpoint
// stores, so a provisional checkpoint (doc/FORMATS.md), written as the
// warm pass reached its boundary and not yet rewritten as its window
// settled, does not reproduce its window exactly. Partial
// (cancellation-flush) checkpoints are not window boundaries and are
// rejected; Continue is the path that finishes an interrupted run.
func RunCheckpoint(ctx context.Context, p *prog.Program, ck *Checkpoint, cfg pipeline.Config, sp Sampling) (*WindowStat, error) {
	if ck.Program != p.Name {
		return nil, fmt.Errorf("sample: checkpoint is for %q, not %q", ck.Program, p.Name)
	}
	if ck.Partial {
		return nil, fmt.Errorf("sample: checkpoint for window %d of %s is a partial (cancellation) flush, not a window boundary; use Continue", ck.Index, p.Name)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Warmup != ck.Sampling.Warmup || sp.Window != ck.Sampling.Window {
		return nil, fmt.Errorf("sample: checkpoint window layout %s does not match requested %s",
			ck.Sampling, sp)
	}
	b := Boundary{Index: ck.Index, Start: ck.Start, Emu: ck.Emu, Warm: ck.Warm}
	res, err := ExecuteWindow(ctx, WindowJob{Prog: p, Config: cfg, Sampling: sp, Boundary: b, Feedback: ck.Warm.LISP})
	if err != nil {
		if ctx.Err() != nil && err == ctx.Err() {
			return nil, err
		}
		return nil, fmt.Errorf("sample: window %d of %s: %w", ck.Index, p.Name, err)
	}
	return &WindowStat{
		Index:        ck.Index,
		Start:        ck.Start,
		MeasuredFrom: ck.Start + sp.Warmup,
		Stats:        res.Stats,
	}, nil
}

// loadCheckpointSet is Resume's and Continue's shared preamble (name is
// the caller, for the errors): it normalizes sc, which must name a
// CheckpointDir, reads p's checkpoints there into a WarmSet of their
// window boundaries, for the window coordinator to re-run, and returns
// the newest checkpoint read (Continue's starting point). Every file
// must belong to p and carry sc's window layout; rejections name the
// offending file. A partial (cancellation) checkpoint contributes no
// boundary and may only be the newest. The
// indices must run contiguously from 0: the coordinator re-derives each
// window's boot feedback by chaining from window 0, which no gap can be
// bridged over, so a missing window is an error naming its index.
func loadCheckpointSet(p *prog.Program, sc Config, name string) (Config, *WarmSet, *Checkpoint, error) {
	sc, err := sc.normalized()
	if err != nil {
		return sc, nil, nil, err
	}
	if sc.CheckpointDir == "" {
		return sc, nil, nil, fmt.Errorf("sample: %s needs Config.CheckpointDir", name)
	}
	paths, err := Checkpoints(sc.CheckpointDir, p.Name)
	if err != nil {
		return sc, nil, nil, err
	}
	if len(paths) == 0 {
		return sc, nil, nil, fmt.Errorf("sample: no checkpoints for %s in %s", p.Name, sc.CheckpointDir)
	}
	// Newest first: it is where Continue resumes, so a layout mismatch
	// names that file.
	cks := make([]*Checkpoint, len(paths))
	for i := len(paths) - 1; i >= 0; i-- {
		ck, err := LoadCheckpoint(paths[i])
		if err != nil {
			return sc, nil, nil, err
		}
		if ck.Program != p.Name {
			return sc, nil, nil, fmt.Errorf("sample: checkpoint %s is for %q, not %q", paths[i], ck.Program, p.Name)
		}
		if err := validateLayout(sc.Sampling, ck.Sampling); err != nil {
			return sc, nil, nil, fmt.Errorf("checkpoint %s: %w", paths[i], err)
		}
		cks[i] = ck
	}
	set := &WarmSet{Program: p.Name, Sampling: sc.Sampling}
	for i, ck := range cks {
		if ck.Index != i || (ck.Partial && i != len(cks)-1) {
			return sc, nil, nil, fmt.Errorf("sample: checkpoints of %s in %s are missing window %d; feedback cannot chain across the gap",
				p.Name, sc.CheckpointDir, i)
		}
		if !ck.Partial {
			set.Boundaries = append(set.Boundaries, Boundary{Index: ck.Index, Start: ck.Start, Emu: ck.Emu, Warm: ck.Warm})
		}
	}
	return sc, set, cks[len(cks)-1], nil
}

// Resume re-runs every checkpointed window of p in sc.CheckpointDir and
// aggregates them — the restart-after-interruption and shard-merge path
// for a checkpoint set whose run completed. dynLen scales whole-run
// estimates exactly as in Run. The windows run on the window
// coordinator (sc.Executor, sc.Scheduler, or a one-slot pool), which
// chains the feedback from window 0 and rewrites each checkpoint with
// it as its window settles, so the result is bit-identical to the
// uninterrupted direct run even when the files are provisional ones. A
// partial (cancellation) checkpoint contributes no window; use Continue
// to finish an interrupted run instead of merely re-measuring its
// prefix.
func Resume(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	sc, set, _, err := loadCheckpointSet(p, sc, "Resume")
	if err != nil {
		return nil, err
	}
	if len(set.Boundaries) == 0 {
		return nil, fmt.Errorf("sample: no completed windows for %s in %s (the run was interrupted before any window boundary; use Continue to finish it)",
			p.Name, sc.CheckpointDir)
	}
	return (&source{set: set}).run(ctx, p, dynLen, cfg, sc)
}

// Continue finishes an interrupted sampled run from its checkpoint
// directory. One coordinator run covers it: every window before the
// newest checkpoint re-runs from its stored boundary exactly as in
// Resume, and a live warm pass resumed from the newest checkpoint — a
// window boundary or a partial cancellation flush — streams the rest of
// the program's boundaries, writing further checkpoints as it goes. The
// aggregate is bit-identical to the uninterrupted run's: re-run windows
// reproduce their stats exactly, the resumed pass restores the emulator
// and warmer to the exact state the interrupted run held, and the
// coordinator chains the LISP feedback across both (superseding a
// provisional checkpoint's stale one).
//
// A checkpoint set whose run already completed just re-measures every
// window (the resumed pass discovers the program's halt), so Continue
// also subsumes Resume for whole-run re-execution.
func Continue(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	sc, set, last, err := loadCheckpointSet(p, sc, "Continue")
	if err != nil {
		return nil, err
	}
	if !last.Partial {
		set.Boundaries = set.Boundaries[:len(set.Boundaries)-1]
	}
	e, err := emu.NewFromState(p, last.Emu)
	if err != nil {
		return nil, err
	}
	w, err := warmerFromSnapshot(cfg, last.Warm)
	if err != nil {
		return nil, err
	}
	src := newPass(ctx, p, cfg, &sc, e, w, last.Index, false)
	src.set = set
	return src.run(ctx, p, dynLen, cfg, sc)
}

// validateLayout rejects a requested window layout that does not match
// the one a checkpoint was written under.
func validateLayout(want, have Sampling) error {
	if err := want.Validate(); err != nil {
		return err
	}
	if want != have {
		return fmt.Errorf("sample: checkpoint sampling layout %s does not match requested %s", have, want)
	}
	return nil
}
