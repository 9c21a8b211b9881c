package core

import "fmt"

// This file holds the serializable state of the LISP — the core-side
// state hook of the sampling subsystem, which chains each window's final
// LISP into the next window's boot. The integration table has no
// snapshot: its entries name physical registers, which exist only inside
// one pipeline instance, so each detailed window warms it during its
// warmup prefix (pipeline.RunWindowContext) instead.

// LISPEntryState is one LISP entry's serializable form. Rank is the
// entry's recency within its set: 1..k over the set's k valid ways, the
// most recent highest; an invalid way is all zero.
type LISPEntryState struct {
	Valid bool
	Rank  uint32
	PC    uint64
}

// LISPState is the serializable state of a LISP: entries flattened
// set-major. LISP state is purely PC-keyed, so it is meaningful across
// pipeline instances, and it holds no clock: equal states make equal
// decisions.
type LISPState struct {
	Entries []LISPEntryState
}

// State deep-copies the predictor contents.
func (l *LISP) State() LISPState {
	return LISPState{Entries: append([]LISPEntryState(nil), l.entries...)}
}

// SetState restores a snapshot and zeroes the tallies — the one restore
// body of the LISP. The geometry must match, and every set must hold a
// rank order: its k valid ways ranked 1..k once each, its invalid ways
// zero. A snapshot that breaks either is an error and leaves the LISP
// as it was.
func (l *LISP) SetState(st LISPState) error {
	if len(st.Entries) != len(l.entries) {
		return fmt.Errorf("core: LISP state has %d entries, want %d",
			len(st.Entries), len(l.entries))
	}
	assoc := len(l.seen)
	for s := 0; s < len(st.Entries); s += assoc {
		if err := checkRanks(st.Entries[s:s+assoc], l.seen); err != nil {
			return fmt.Errorf("core: LISP state set %d: %w", s/assoc, err)
		}
	}
	copy(l.entries, st.Entries)
	l.changed = false
	l.Lookups, l.Suppressed, l.TrainInsert = 0, 0, 0
	return nil
}

// checkRanks reports whether set holds a rank order, using seen (one
// flag per way) as scratch.
func checkRanks(set []LISPEntryState, seen []bool) error {
	clear(seen)
	var valid uint32
	for _, e := range set {
		if e.Valid {
			valid++
		} else if e != (LISPEntryState{}) {
			return fmt.Errorf("invalid way holds %+v", e)
		}
	}
	for _, e := range set {
		if !e.Valid {
			continue
		}
		if e.Rank < 1 || e.Rank > valid || seen[e.Rank-1] {
			return fmt.Errorf("rank %d is not a distinct rank in 1..%d", e.Rank, valid)
		}
		seen[e.Rank-1] = true
	}
	return nil
}
