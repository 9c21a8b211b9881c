package sample

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file bounds the warm cache directory. Every key writes one
// entry and nothing ever rewrote or removed them, so a long-lived cache
// dir grew forever; the sweep runs best-effort after each save and
// evicts least-recently-used entries over the configured size and age
// bounds. Recency is the file's modification time: saves stamp it by
// writing, and cache hits re-stamp it (touchWarmSet), so eviction order
// is true LRU over both writers and readers. See doc/FORMATS.md for the
// on-disk layout.

// sweepWarmCache enforces Config.CacheMaxBytes / CacheMaxAge over dir:
// entries older than maxAge go first, then least-recently-used entries
// until the directory's .warmset total fits maxBytes. A zero bound disables that check. keep names the entry
// just written, which is never evicted — the run that wrote it must
// find it on its next probe even under a bound smaller than one entry. All failures are silently
// ignored: the sweep is advisory, and a missed eviction only costs
// disk, never correctness (loads validate content, not directory
// state).
func sweepWarmCache(dir string, maxBytes int64, maxAge time.Duration, keep string) {
	if maxBytes <= 0 && maxAge <= 0 {
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type entry struct {
		path string
		size int64
		mod  time.Time
	}
	var files []entry
	var total int64
	now := time.Now()
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if filepath.Ext(de.Name()) != ".warmset" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		e := entry{path: filepath.Join(dir, de.Name()), size: info.Size(), mod: info.ModTime()}
		if e.path == keep {
			continue
		}
		if maxAge > 0 && now.Sub(e.mod) > maxAge {
			os.Remove(e.path)
			continue
		}
		files = append(files, e)
		total += e.size
	}
	if maxBytes <= 0 {
		return
	}
	if keep != "" {
		if info, err := os.Stat(keep); err == nil {
			total += info.Size()
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, e := range files {
		if total <= maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
		}
	}
}

// touchWarmSet re-stamps a cache entry's modification time on a hit, so
// the LRU sweep ranks hot entries as recently used. Best-effort.
func touchWarmSet(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}
