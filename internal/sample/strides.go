package sample

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the stride-snapshot subsystem behind the sharded warm
// pass. A stride pass is a plain linear scan of the whole trace —
// emulator plus warmer, every instruction observed — that captures the
// full resumable state (emu.State + WarmSnapshot) at every multiple of
// a coarse stride. Because the warm pass warms every instruction
// regardless of where the measurement windows land, and the only state
// it never touches functionally (LISP, CHT) is untrained until the
// window phase, the state at dynamic count k·S is the same for every
// window layout: one stride set serves warm passes for any Sampling.
// That is what makes the snapshots cacheable under a key that ignores
// the layout (strideKey), and what lets warm workers resume from them
// and reproduce the sequential pass's boundary snapshots bit-for-bit.
//
// Stride sets are produced three ways: PrepareStrides builds one
// directly; a sequential warm pass with a cache directory records one
// as a near-free byproduct (the copy-on-write emulator memory makes
// each capture O(resident pages)); and the content-addressed cache
// (.stride entries alongside .warmset ones) persists them across
// processes. doc/FORMATS.md documents the entry layout and key.

// StrideCacheFormat versions the on-disk stride-set encoding
// (doc/FORMATS.md). Bump it whenever StrideSet, Stride, WarmSnapshot or
// emu.State change shape.
const StrideCacheFormat = 1

// Stride is one resumable position in the trace: the complete emulator
// and warm state after exactly Count instructions.
type Stride struct {
	Count uint64
	Emu   emu.State
	Warm  WarmSnapshot
}

// StrideSet is a stride pass's output: snapshots at every multiple of
// Stride up to the program's halt at Total, sorted by Count (count 0 is
// not stored — a worker whose span starts there boots a fresh emulator
// and warmer instead). Key is the content-addressed identity the set
// was built under (strideKey); consumers revalidate it against their
// own program and geometry before resuming from the snapshots, so a set
// can never silently warm the wrong machine. A StrideSet is read-only
// once built and may be shared by concurrent runs (Config.Strides).
type StrideSet struct {
	Program string
	Stride  uint64
	Total   uint64 // dynamic instruction count at program halt
	Key     string
	Strides []Stride
}

// strideKey derives the stride cache key. It hashes the same inputs as
// warmKey except the window layout and drain pad — stride snapshots
// are layout-independent, which is the point. The stride itself is
// deliberately not keyed either: snapshots at any spacing resume a
// warm worker correctly, so one entry per (program, geometry) serves
// every stride request, and the entry's recorded Stride field simply
// wins over Config.WarmStride. Delete the entry to re-record at a
// different spacing.
func strideKey(p *prog.Program, cfg pipeline.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "strideset/%d/%d\n", StrideCacheFormat, CheckpointFormat)
	fmt.Fprintf(h, "prog/%s/%#x/%#x/%#x/%#x/%d\n", p.Name, p.CodeBase, p.Entry, p.StackTop, p.DataBase, len(p.Data))
	h.Write(p.Data)
	fmt.Fprintf(h, "\ncode/%#v\n", p.Code)
	fmt.Fprintf(h, "mem/%#v\n", cfg.Mem)
	fmt.Fprintf(h, "pred/%#v\n", cfg.Pred)
	fmt.Fprintf(h, "lisp/%#v\n", cfg.LISP)
	fmt.Fprintf(h, "enable/%v\n", cfg.Policy.Enable)
	return hex.EncodeToString(h.Sum(nil))
}

// strideFile is the cache entry envelope, mirroring warmSetFile.
type strideFile struct {
	Format           int
	CheckpointFormat int
	Key              string
	Set              StrideSet
}

// strideSetPath names a key's cache file.
func strideSetPath(dir, key string) string {
	return filepath.Join(dir, key[:16]+".stride")
}

// loadStrideSet returns the cached stride set for key, or nil on any
// kind of miss (absent, unreadable, format/key/content mismatch).
func loadStrideSet(dir, key, program string) (*StrideSet, string) {
	path := strideSetPath(dir, key)
	f, err := os.Open(path)
	if err != nil {
		return nil, ""
	}
	defer f.Close()
	var sf strideFile
	if err := gob.NewDecoder(f).Decode(&sf); err != nil {
		return nil, ""
	}
	if sf.Format != StrideCacheFormat || sf.CheckpointFormat != CheckpointFormat || sf.Key != key {
		return nil, ""
	}
	if sf.Set.Program != program || sf.Set.Key != key || sf.Set.Stride == 0 {
		return nil, ""
	}
	return &sf.Set, path
}

// saveStrideSet atomically persists a stride set under its key, exactly
// like saveWarmSet.
func saveStrideSet(dir string, set *StrideSet) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sample: stride cache dir: %w", err)
	}
	path := strideSetPath(dir, set.Key)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("sample: stride cache: %w", err)
	}
	err = gob.NewEncoder(f).Encode(&strideFile{
		Format:           StrideCacheFormat,
		CheckpointFormat: CheckpointFormat,
		Key:              set.Key,
		Set:              *set,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("sample: stride cache %s: %w", path, err)
	}
	return path, nil
}

// strideRec accumulates stride snapshots during a linear warm scan. A
// nil *strideRec disables recording; capture is called after every
// observed instruction and snapshots exactly at stride multiples.
type strideRec struct {
	set  *StrideSet
	next uint64
}

func newStrideRec(p *prog.Program, key string, stride uint64) *strideRec {
	return &strideRec{
		set:  &StrideSet{Program: p.Name, Stride: stride, Key: key},
		next: stride,
	}
}

// capture snapshots the scan state when it has just reached the next
// stride multiple. Cheap to call per instruction: small enough to
// inline, it costs one compare on the miss path (one more when sr is
// nil).
func (sr *strideRec) capture(e *emu.Emulator, w *warmer) {
	if sr != nil && e.Count == sr.next {
		sr.take(e, w)
	}
}

// take records the snapshot capture found due; kept out of line so
// capture stays cheap enough to inline.
func (sr *strideRec) take(e *emu.Emulator, w *warmer) {
	sr.set.Strides = append(sr.set.Strides, Stride{Count: e.Count, Emu: e.State(), Warm: w.snapshot()})
	sr.next += sr.set.Stride
}

// finish stamps the halt count and returns the completed set.
func (sr *strideRec) finish(total uint64) *StrideSet {
	sr.set.Total = total
	return sr.set
}

// PrepareStrides returns the stride set for (p, cfg, sc): the injected
// sc.Strides when present, else a cache load (sc.CacheDir), else one
// stride pass over the whole trace — saved back into the cache when
// sc.CacheDir is set. The stride is sc.WarmStride (default: the
// sampling interval). Prepare once and inject via Config.Strides to
// give every subsequent warm pass — for any window layout — a sharded
// build.
func PrepareStrides(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*StrideSet, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	return prepareStrides(ctx, p, cfg, sc)
}

// prepareStrides is PrepareStrides over an already-normalized Config.
func prepareStrides(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*StrideSet, error) {
	if sc.Strides != nil {
		if err := validateStrides(sc.Strides, p, cfg); err != nil {
			return nil, err
		}
		return sc.Strides, nil
	}
	key := strideKey(p, cfg)
	if sc.CacheDir != "" {
		if set, path := loadStrideSet(sc.CacheDir, key, p.Name); set != nil {
			touchWarmSet(path)
			if sc.Hooks.CacheHit != nil {
				sc.Hooks.CacheHit(path)
			}
			return set, nil
		}
	}
	set, err := stridePass(ctx, p, cfg, sc, key)
	if err != nil {
		return nil, err
	}
	if sc.CacheDir != "" {
		// Best-effort, like the warm-set save.
		if path, err := saveStrideSet(sc.CacheDir, set); err == nil {
			if sc.Hooks.CacheWritten != nil {
				sc.Hooks.CacheWritten(path)
			}
			sweepWarmCache(sc.CacheDir, sc.CacheMaxBytes, sc.CacheMaxAge, path)
		}
	}
	return set, nil
}

// validateStrides checks that a stride set was built for exactly this
// program and warm-relevant geometry, by re-deriving its key.
func validateStrides(set *StrideSet, p *prog.Program, cfg pipeline.Config) error {
	if set.Stride == 0 || set.Total == 0 {
		return fmt.Errorf("sample: stride set is empty or unbuilt")
	}
	if key := strideKey(p, cfg); set.Key != key {
		return fmt.Errorf("sample: stride set does not match %s under this machine geometry", p.Name)
	}
	return nil
}

// stridePass is the dedicated stride builder: one linear warm scan of
// the whole trace, snapshotting at every stride multiple. Identical
// per-instruction warming to the warm pass proper, so its snapshots
// resume into bit-identical state.
func stridePass(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config, key string) (*StrideSet, error) {
	sc.CheckpointDir = "" // the stride pass persists no window checkpoints
	sr := newStrideRec(p, key, sc.WarmStride)
	c := cursor{ctx: ctx, p: p, sc: &sc, e: emu.New(p), w: newWarmer(cfg)}
	if err := c.seek(0, math.MaxUint64, sr); err != nil {
		return nil, err
	}
	return sr.finish(c.e.Count), nil
}
