package core

// LISP is the load integration suppression predictor: a PC-indexed,
// set-associative tag cache in which a hit suppresses a load's
// integration. It is trained on load mis-integrations and deliberately
// overbiased — entries are never aged out except by conflict, trading
// false suppressions for fewer mis-integrations (paper §3.1).
//
// Recency is a rank within each set, not a global clock: a set's k valid
// ways hold ranks 1..k, the most recent the highest, and invalid ways
// hold 0. The victim rule needs only that order, and a snapshot of it
// changes only when a hit or a training insert reorders a set, so two
// LISPs with equal State make the same Suppress and Train decisions.
type LISP struct {
	entries []lispEntry   // every entry, set-major
	sets    [][]lispEntry // entries sliced per set
	seen    []bool        // SetState's per-set rank scratch, one per way
	changed bool          // a Train or a reordering Suppress hit since SetState or Reset

	Lookups     uint64
	Suppressed  uint64
	TrainInsert uint64
}

// lispEntry is stored in its serialized form, so State and SetState
// are each one copy of the entry array.
type lispEntry = LISPEntryState

// LISPConfig sizes the predictor; defaults are the paper's 1K entries,
// 2-way.
type LISPConfig struct {
	Entries int
	Assoc   int
}

func (c LISPConfig) withDefaults() LISPConfig {
	if c.Entries == 0 {
		c.Entries = 1024
	}
	if c.Assoc == 0 {
		c.Assoc = 2
	}
	return c
}

// NewLISP builds the predictor.
func NewLISP(cfg LISPConfig) *LISP {
	cfg = cfg.withDefaults()
	nSets := cfg.Entries / cfg.Assoc
	if nSets == 0 {
		nSets = 1
	}
	l := &LISP{
		entries: make([]lispEntry, nSets*cfg.Assoc),
		sets:    make([][]lispEntry, nSets),
		seen:    make([]bool, cfg.Assoc),
	}
	// One flat backing array sliced per set (cf. Table, memsys.Cache).
	entries := l.entries
	for i := range l.sets {
		l.sets[i], entries = entries[:cfg.Assoc:cfg.Assoc], entries[cfg.Assoc:]
	}
	return l
}

// Reset empties the predictor and zeroes its tallies, leaving it as
// NewLISP built it.
func (l *LISP) Reset() {
	clear(l.entries)
	l.changed = false
	l.Lookups, l.Suppressed, l.TrainInsert = 0, 0, 0
}

// Changed reports whether a Train call or a Suppress hit that reordered
// its set has run since the last SetState or Reset: when it has not,
// State still returns what SetState was given (or a cold LISP's state).
func (l *LISP) Changed() bool { return l.changed }

func (l *LISP) set(pc uint64) []lispEntry {
	return l.sets[(pc>>2)%uint64(len(l.sets))]
}

// touch makes valid way i its set's most recent: every way ranked above
// it moves down one, and it takes the top rank. It reports whether that
// reordered the set.
func touch(set []lispEntry, i int) bool {
	r, top := set[i].Rank, set[i].Rank
	for j := range set {
		if set[j].Rank > r {
			set[j].Rank--
			top++
		}
	}
	set[i].Rank = top
	return top != r
}

// Suppress reports whether integration of the load at pc should be
// suppressed.
func (l *LISP) Suppress(pc uint64) bool {
	l.Lookups++
	set := l.set(pc)
	for i := range set {
		if set[i].Valid && set[i].PC == pc {
			if touch(set, i) {
				l.changed = true
			}
			l.Suppressed++
			return true
		}
	}
	return false
}

// Train records a mis-integrating load. A new entry takes the last
// invalid way, else the least recent one.
func (l *LISP) Train(pc uint64) {
	l.TrainInsert++
	l.changed = true
	set := l.set(pc)
	victim := 0
	var valid uint32
	for i := range set {
		if set[i].Valid && set[i].PC == pc {
			touch(set, i)
			return
		}
		if !set[i].Valid {
			victim = i
			continue
		}
		valid++
		if set[victim].Valid && set[i].Rank < set[victim].Rank {
			victim = i
		}
	}
	if set[victim].Valid {
		set[victim].PC = pc
		touch(set, victim)
		return
	}
	set[victim] = lispEntry{Valid: true, PC: pc, Rank: valid + 1}
}
