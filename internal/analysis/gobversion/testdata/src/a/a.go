// Package a is the baseline structure the gobversion test pins.
package a

import "a/b"

// BlobFormat is the format constant guarding Blob's gob layout.
const BlobFormat = 1

// Blob stands in for a gob-serialized artifact type: the format root.
type Blob struct {
	A  uint64
	B  []byte
	In *b.Inner // pinned with Blob: a module type the root reaches

	scratch int // unexported: invisible to gob, excluded from the hash
}

// NoteFormat is the format constant guarding Note's gob layout.
const NoteFormat = 1

// Note is a second format root in the package, with a guard of its own.
type Note struct {
	Text string
}
