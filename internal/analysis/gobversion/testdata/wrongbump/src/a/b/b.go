// Package b holds types the root in package a reaches.
package b

// Inner is pinned by its exported fields.
type Inner struct {
	K    Kind
	Vals []uint64

	hidden int // unexported: excluded
}

// Kind is pinned by its underlying type.
type Kind uint8
