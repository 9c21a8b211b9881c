package gobfile

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestRoundTrip: Write then Read returns the value, leaves no temporary
// file behind, and makes the file readable to other users.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gob")
	type rec struct {
		N int
		S []string
	}
	in := rec{N: 7, S: []string{"a", "b"}}
	if err := Write(path, &in); err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := Read(path, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != in.N || len(out.S) != 2 || out.S[1] != "b" {
		t.Fatalf("read %+v, wrote %+v", out, in)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only the file", len(ents))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", info.Mode().Perm())
	}
}

// TestReadErrors: a missing file is fs.ErrNotExist; a torn file is a
// decode error, not a missing one.
func TestReadErrors(t *testing.T) {
	dir := t.TempDir()
	var v int
	if err := Read(filepath.Join(dir, "absent"), &v); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	torn := filepath.Join(dir, "torn")
	if err := os.WriteFile(torn, []byte{0x03, 0x04}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Read(torn, &v); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn file: %v, want a decode error", err)
	}
}
