// Package a is unchanged from the baseline, but a type its root reaches
// in package b gained a field: the root's structure changed all the
// same.
package a

import "a/b"

// BlobFormat was NOT bumped.
const BlobFormat = 1

// Blob is the baseline root.
type Blob struct { // want "changed structure \(added: a/b\.Inner\.Extra int\) without a format-const bump"
	A  uint64
	B  []byte
	In *b.Inner

	scratch int
}
