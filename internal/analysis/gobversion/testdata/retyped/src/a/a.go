// Package a is unchanged from the baseline, but a named type its root
// reaches in package b changed its underlying type: the root's
// structure changed all the same.
package a

import "a/b"

// BlobFormat was NOT bumped.
const BlobFormat = 1

// Blob is the baseline root.
type Blob struct { // want "changed structure \(added: a/b\.Kind = uint16; removed: a/b\.Kind = uint8\) without a format-const bump"
	A  uint64
	B  []byte
	In *b.Inner

	scratch int
}
