package sample

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rix/internal/emu"
	"rix/internal/gobfile"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// CheckpointFormat versions the on-disk checkpoint encoding. Bump it
// whenever Checkpoint, WarmSnapshot, emu.State or any of the embedded
// state structs change shape; loads reject other versions.
// doc/FORMATS.md is the authoritative field-by-field description and
// version history — keep it in lockstep with any change here.
const CheckpointFormat = 5

// Checkpoint is one window boundary on disk — everything its
// measurement window needs to run in isolation: the emulator's
// architectural state at the window's detailed start and the warmed
// microarchitectural state at the same boundary — in an envelope naming
// the encoding, the program and the window layout (doc/FORMATS.md).
// The warm state depends on the machine geometry and the drain pad,
// never on the integration policy (the coordinator chains the LISP
// feedback itself), so a checkpoint set serves every policy of one
// geometry; keep one directory per machine geometry and drain pad.
// Continue validates the window layout but cannot detect a geometry
// mismatch.
type Checkpoint struct {
	Format   int
	Program  string
	Sampling Sampling
	Boundary
}

// checkpointName names a window's file. The zero-padded index keeps
// lexical directory order equal to window order.
func checkpointName(program string, idx int) string {
	return fmt.Sprintf("%s-w%05d.ckpt", program, idx)
}

// SaveCheckpoint atomically writes a checkpoint into dir (created if
// missing), returning its path. A crash mid-write leaves no partial
// file (gobfile.Write).
func SaveCheckpoint(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sample: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, checkpointName(ck.Program, ck.Index))
	if err := gobfile.Write(path, ck); err != nil {
		return "", fmt.Errorf("sample: checkpoint %s: %w", path, err)
	}
	return path, nil
}

// LoadCheckpoint reads and validates one checkpoint file: the format
// version must match this build's and the recorded window layout must
// be internally valid. Every rejection names the offending file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gobfile.Read(path, &ck); err != nil {
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
// layout, into sc.CheckpointDir.
func saveBoundary(sc *Config, p *prog.Program, b Boundary) (string, error) {
	return SaveCheckpoint(sc.CheckpointDir, &Checkpoint{
		Format:   CheckpointFormat,
		Program:  p.Name,
		Sampling: sc.Sampling,
		Boundary: b,
	})
}

// Continue finishes an interrupted sampled run from the checkpoints of
// p in sc.CheckpointDir, and re-measures a completed one. One
// coordinator run covers it: every window before the newest checkpoint
// re-runs from its stored boundary, and a live warm pass resumed from
// the newest checkpoint streams the rest of the program's boundaries (a
// completed set's pass discovers the program's halt). Like Run, it
// writes each boundary's checkpoint as it hands the boundary to its
// window, so the files it re-runs are rewritten with the same content.
// dynLen scales whole-run estimates exactly as in Run. The aggregate is
// bit-identical to the uninterrupted run's: re-run windows reproduce
// their stats exactly, the resumed pass restores the emulator and
// warmer to the exact state the interrupted run held, and the
// coordinator chains the LISP feedback from window 0 across both.
//
// Every file must belong to p and carry sc's window layout; rejections
// name the offending file, and the newest is read first so a layout
// mismatch names it. The indices must run contiguously from 0: no gap
// can be bridged over when chaining feedback, so a missing window is an
// error naming its index.
func Continue(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	if sc.CheckpointDir == "" {
		return nil, fmt.Errorf("sample: Continue needs Config.CheckpointDir")
	}
	paths, err := Checkpoints(sc.CheckpointDir, p.Name)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("sample: no checkpoints for %s in %s", p.Name, sc.CheckpointDir)
	}
	cks := make([]*Checkpoint, len(paths))
	for i := len(paths) - 1; i >= 0; i-- {
		ck, err := LoadCheckpoint(paths[i])
		if err != nil {
			return nil, err
		}
		if ck.Program != p.Name {
			return nil, fmt.Errorf("sample: checkpoint %s is for %q, not %q", paths[i], ck.Program, p.Name)
		}
		if err := validateLayout(sc.Sampling, ck.Sampling); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", paths[i], err)
		}
		cks[i] = ck
	}
	last := cks[len(cks)-1]
	set := &WarmSet{Program: p.Name, Sampling: sc.Sampling}
	for i, ck := range cks {
		if ck.Index != i {
			return nil, fmt.Errorf("sample: checkpoints of %s in %s are missing window %d; feedback cannot chain across the gap",
				p.Name, sc.CheckpointDir, i)
		}
		if ck != last {
			set.Boundaries = append(set.Boundaries, ck.Boundary)
		}
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
