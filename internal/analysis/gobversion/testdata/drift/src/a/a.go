// Package a drifts structurally from the baseline without bumping the
// format constant — the dangerous case gobversion exists to catch.
package a

import "a/b"

// BlobFormat was NOT bumped despite the new field below.
const BlobFormat = 1

// Blob gained a field since the golden was recorded.
type Blob struct { // want "without a format-const bump"
	A  uint64
	B  []byte
	In *b.Inner
	C  string
}
