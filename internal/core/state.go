package core

import "fmt"

// This file holds the serializable state of the LISP — the core-side
// state hook of the sampling subsystem, which chains each window's final
// LISP into the next window's boot. The integration table has no
// snapshot: its entries name physical registers, which exist only inside
// one pipeline instance, so each detailed window warms it during its
// warmup prefix (pipeline.RunWindowContext) instead.

// LISPEntryState is one LISP entry's serializable form.
type LISPEntryState struct {
	Valid bool
	PC    uint64
	LRU   uint64
}

// LISPState is the serializable state of a LISP: entries flattened
// set-major plus the LRU clock. LISP state is purely PC-keyed, so it is
// meaningful across pipeline instances.
type LISPState struct {
	Entries []LISPEntryState
	Tick    uint64
}

// State deep-copies the predictor contents.
func (l *LISP) State() LISPState {
	return LISPState{Entries: append([]LISPEntryState(nil), l.entries...), Tick: l.tick}
}

// SetState restores a snapshot and zeroes the tallies — the one restore
// body of the LISP; the geometry must match.
func (l *LISP) SetState(st LISPState) error {
	if len(st.Entries) != len(l.entries) {
		return fmt.Errorf("core: LISP state has %d entries, want %d",
			len(st.Entries), len(l.entries))
	}
	copy(l.entries, st.Entries)
	l.tick = st.Tick
	l.Lookups, l.Suppressed, l.TrainInsert = 0, 0, 0
	return nil
}
