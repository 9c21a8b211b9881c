package core

import "testing"

// TestLISPStateRoundTrip verifies the suppression predictor's snapshot —
// the state the sampling engine chains across measurement windows.
func TestLISPStateRoundTrip(t *testing.T) {
	a := NewLISP(LISPConfig{Entries: 16, Assoc: 2})
	a.Train(0x100)
	a.Train(0x104)
	a.Train(0x100) // refresh
	b := NewLISP(LISPConfig{Entries: 16, Assoc: 2})
	if err := b.SetState(a.State()); err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x100, 0x104, 0x108} {
		if got, want := b.Suppress(pc), pc != 0x108; got != want {
			t.Errorf("suppress(%#x) = %v, want %v", pc, got, want)
		}
	}
	if err := NewLISP(LISPConfig{Entries: 8, Assoc: 2}).SetState(a.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
}
