// Package b: Inner gained a field since the golden was recorded.
package b

// Inner gained Extra.
type Inner struct {
	K     Kind
	Vals  []uint64
	Extra int

	hidden int
}

// Kind is unchanged.
type Kind uint8
