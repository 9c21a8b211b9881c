// Package a drifts structurally WITH a format bump: the remaining
// diagnostics just say the golden is stale.
package a // want "format const a.BlobFormat changed"

import "a/b"

// BlobFormat was bumped alongside the structural change.
const BlobFormat = 2

// Blob gained a field, and the format const above was bumped.
type Blob struct { // want "refresh the golden"
	A  uint64
	B  []byte
	In *b.Inner
	C  string
}
