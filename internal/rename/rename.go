// Package rename implements the pointer-based register rename map table
// (logical register → physical register + generation), as in the MIPS
// R10000 / Alpha 21264 style the paper assumes. Mis-speculation recovery,
// DIVA flushes included, is serial undo of the speculative front map
// driven by the pipeline's ROB records; the architectural (retirement)
// map records committed mappings, which the halt-time register-leak
// audit counts.
package rename

import (
	"rix/internal/isa"
	"rix/internal/regfile"
)

// Mapping is one logical register's physical mapping.
type Mapping struct {
	P   regfile.PReg
	Gen uint8
}

// MapTable maps all logical registers.
type MapTable struct {
	m [isa.NumLogical]Mapping
}

// NewMapTable builds a map table with every logical register pointing at
// the pinned zero physical register. The caller is responsible for the
// matching reference counts: the zero register's count is pinned, so
// initial mappings to it are deliberately not counted.
func NewMapTable() *MapTable {
	var t MapTable
	for l := range t.m {
		t.m[l] = Mapping{P: regfile.ZeroReg, Gen: 0}
	}
	return &t
}

// Get returns the mapping of l.
func (t *MapTable) Get(l isa.Reg) Mapping { return t.m[l] }

// Set installs a mapping and returns the previous one for the undo log.
func (t *MapTable) Set(l isa.Reg, m Mapping) Mapping {
	old := t.m[l]
	t.m[l] = m
	return old
}

// Undo is one serial-undo record: restore l to Old, and release the
// mapping that the undone instruction had created.
type Undo struct {
	L   isa.Reg
	Old Mapping
}
