package core

// LISP is the load integration suppression predictor: a PC-indexed,
// set-associative tag cache in which a hit suppresses a load's
// integration. It is trained on load mis-integrations and deliberately
// overbiased — entries are never aged out except by conflict, trading
// false suppressions for fewer mis-integrations (paper §3.1).
type LISP struct {
	entries []lispEntry   // every entry, set-major
	sets    [][]lispEntry // entries sliced per set
	tick    uint64

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
	l := &LISP{entries: make([]lispEntry, nSets*cfg.Assoc), sets: make([][]lispEntry, nSets)}
	// One flat backing array sliced per set (cf. Table, memsys.Cache).
	entries := l.entries
	for i := range l.sets {
		l.sets[i], entries = entries[:cfg.Assoc:cfg.Assoc], entries[cfg.Assoc:]
	}
	return l
}

func (l *LISP) set(pc uint64) []lispEntry {
	return l.sets[(pc>>2)%uint64(len(l.sets))]
}

// Suppress reports whether integration of the load at pc should be
// suppressed.
func (l *LISP) Suppress(pc uint64) bool {
	l.Lookups++
	set := l.set(pc)
	for i := range set {
		if set[i].Valid && set[i].PC == pc {
			l.tick++
			set[i].LRU = l.tick
			l.Suppressed++
			return true
		}
	}
	return false
}

// Train records a mis-integrating load.
func (l *LISP) Train(pc uint64) {
	l.TrainInsert++
	l.tick++
	set := l.set(pc)
	victim := 0
	for i := range set {
		if set[i].Valid && set[i].PC == pc {
			set[i].LRU = l.tick
			return
		}
		if !set[i].Valid {
			victim = i
		} else if set[victim].Valid && set[i].LRU < set[victim].LRU {
			victim = i
		}
	}
	set[victim] = lispEntry{Valid: true, PC: pc, LRU: l.tick}
}
