package rename

import (
	"testing"

	"rix/internal/isa"
	"rix/internal/regfile"
)

func TestMapTableBasics(t *testing.T) {
	mt := NewMapTable()
	for l := isa.Reg(0); l < isa.NumLogical; l++ {
		if mt.Get(l).P != regfile.ZeroReg {
			t.Fatalf("initial mapping of %v = p%d", l, mt.Get(l).P)
		}
	}
	old := mt.Set(isa.RegSP, Mapping{P: 5, Gen: 3})
	if old.P != regfile.ZeroReg {
		t.Errorf("Set returned old %+v", old)
	}
	if got := mt.Get(isa.RegSP); got.P != 5 || got.Gen != 3 {
		t.Errorf("Get = %+v", got)
	}
}

func TestSerialUndo(t *testing.T) {
	mt := NewMapTable()
	var undos []Undo
	// Rename r1 three times, recording undo entries.
	for i := 1; i <= 3; i++ {
		old := mt.Set(1, Mapping{P: regfile.PReg(i), Gen: uint8(i)})
		undos = append(undos, Undo{L: 1, Old: old})
	}
	if mt.Get(1).P != 3 {
		t.Fatalf("after renames: %+v", mt.Get(1))
	}
	// Undo newest-first.
	for i := len(undos) - 1; i >= 0; i-- {
		mt.Set(undos[i].L, undos[i].Old)
	}
	if mt.Get(1).P != regfile.ZeroReg {
		t.Errorf("undo did not restore initial mapping: %+v", mt.Get(1))
	}
}
