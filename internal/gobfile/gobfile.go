// Package gobfile reads and writes files holding one gob-encoded value:
// the file primitive behind checkpoints, the warm-set cache and the
// cross-process window protocol. Callers keep their own format checks.
package gobfile

import (
	"encoding/gob"
	"os"
	"path/filepath"
)

// Write gob-encodes v into path atomically: the payload lands in a
// uniquely named temporary file beside path and is renamed into place.
// A crash mid-write leaves no partial file, and concurrent writers of
// one path never share a temporary file, so each rename installs one
// writer's complete payload.
func Write(path string, v any) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 would hide a shared directory's files from other users
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

// Read decodes the value in path into v. A missing file's error
// satisfies errors.Is(err, fs.ErrNotExist).
func Read(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}
