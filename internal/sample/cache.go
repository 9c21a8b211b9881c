package sample

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"rix/internal/gobfile"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the content-addressed warm-set cache: the warm pass's
// output keyed by everything that determines it, so a repeat run
// skips the warm pass entirely and any invalidating change is a clean
// miss rather than a stale hit. doc/FORMATS.md is the authoritative
// description of the entry layout, key derivation and invalidation
// rules — keep it in lockstep with any change here.

// WarmCacheFormat versions the on-disk warm-set encoding
// (doc/FORMATS.md). Bump it whenever WarmSet, Boundary, WarmSnapshot
// or emu.State change shape.
const WarmCacheFormat = 4

// warmSetFile is the cache entry envelope. The embedded key detects a
// (vanishingly unlikely) truncated-filename collision; the format pair
// rejects entries written by other encodings.
type warmSetFile struct {
	Format           int
	CheckpointFormat int
	Key              string
	Set              WarmSet
}

// warmKey derives the cache key: a SHA-256 over the format versions,
// the program's execution content, the window layout plus drain pad,
// and the warm-relevant machine geometry. doc/FORMATS.md documents
// each keyed input and why it is (or is not) included — notably that
// nothing of the integration policy is: a warm set holds no LISP, so
// every preset of one geometry shares an entry.
func warmKey(p *prog.Program, cfg pipeline.Config, sp Sampling) string {
	h := sha256.New()
	fmt.Fprintf(h, "warmset/%d/%d\n", WarmCacheFormat, CheckpointFormat)
	fmt.Fprintf(h, "prog/%s/%#x/%#x/%#x/%#x/%d\n", p.Name, p.CodeBase, p.Entry, p.StackTop, p.DataBase, len(p.Data))
	h.Write(p.Data)
	fmt.Fprintf(h, "\ncode/%#v\n", p.Code)
	fmt.Fprintf(h, "sampling/%#v\n", sp)
	fmt.Fprintf(h, "pad/%d\n", detailPad(cfg))
	fmt.Fprintf(h, "mem/%#v\n", cfg.Mem)
	fmt.Fprintf(h, "pred/%#v\n", cfg.Pred)
	return hex.EncodeToString(h.Sum(nil))
}

// warmSetPath names a key's cache file. The truncated key keeps names
// readable; the full key inside the envelope disambiguates.
func warmSetPath(dir, key string) string {
	return filepath.Join(dir, key[:16]+".warmset")
}

// loadWarmSet returns the cached warm set for key, or nil on any kind
// of miss (absent, unreadable, format/key/content mismatch).
func loadWarmSet(dir, key, program string, sp Sampling) (*WarmSet, string) {
	path := warmSetPath(dir, key)
	var wf warmSetFile
	if err := gobfile.Read(path, &wf); err != nil {
		return nil, ""
	}
	if wf.Format != WarmCacheFormat || wf.CheckpointFormat != CheckpointFormat || wf.Key != key {
		return nil, ""
	}
	if wf.Set.Program != program || wf.Set.Sampling != sp {
		return nil, ""
	}
	return &wf.Set, path
}

// saveWarmSet atomically persists a warm set under its key
// (gobfile.Write, like SaveCheckpoint): a crash mid-write leaves no
// partial entry, and concurrent writers of the same key each rename a
// complete entry with identical contents.
func saveWarmSet(dir, key string, set *WarmSet) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sample: warm cache dir: %w", err)
	}
	path := warmSetPath(dir, key)
	err := gobfile.Write(path, &warmSetFile{
		Format:           WarmCacheFormat,
		CheckpointFormat: CheckpointFormat,
		Key:              key,
		Set:              *set,
	})
	if err != nil {
		return "", fmt.Errorf("sample: warm cache %s: %w", path, err)
	}
	return path, nil
}
