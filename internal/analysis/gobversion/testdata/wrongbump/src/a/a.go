// Package a drifts Blob's structure but bumps only Note's format
// constant: Blob's own guard did not move, so its change is unguarded.
package a // want "format const a.NoteFormat changed"

import "a/b"

// BlobFormat was NOT bumped despite Blob's new field.
const BlobFormat = 1

// Blob gained a field since the golden was recorded.
type Blob struct { // want "without a format-const bump; bump a.BlobFormat"
	A  uint64
	B  []byte
	In *b.Inner
	C  string
}

// NoteFormat was bumped, though Note did not change.
const NoteFormat = 2

// Note is unchanged.
type Note struct {
	Text string
}
