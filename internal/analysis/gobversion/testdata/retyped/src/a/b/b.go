// Package b: Kind was retyped since the golden was recorded.
package b

// Inner is unchanged.
type Inner struct {
	K    Kind
	Vals []uint64

	hidden int
}

// Kind was uint8.
type Kind uint16
