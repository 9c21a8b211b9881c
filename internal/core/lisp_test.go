package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// tickLISP is the LISP as a global recency clock — every hit or
// training insert stamps its way with the next tick, and the victim is
// the last invalid way, else the smallest stamp. It is the oracle the
// rank-ordered LISP is checked against.
type tickLISP struct {
	sets [][]tickEntry
	tick uint64
}

type tickEntry struct {
	valid bool
	pc    uint64
	lru   uint64
}

func newTickLISP(cfg LISPConfig) *tickLISP {
	cfg = cfg.withDefaults()
	l := &tickLISP{sets: make([][]tickEntry, max(cfg.Entries/cfg.Assoc, 1))}
	for i := range l.sets {
		l.sets[i] = make([]tickEntry, cfg.Assoc)
	}
	return l
}

func (l *tickLISP) set(pc uint64) []tickEntry { return l.sets[(pc>>2)%uint64(len(l.sets))] }

func (l *tickLISP) Suppress(pc uint64) bool {
	set := l.set(pc)
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			l.tick++
			set[i].lru = l.tick
			return true
		}
	}
	return false
}

func (l *tickLISP) Train(pc uint64) {
	l.tick++
	set := l.set(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			set[i].lru = l.tick
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tickEntry{valid: true, pc: pc, lru: l.tick}
}

// ranked is the oracle's contents as the rank LISP's State: each valid
// way ranked by how many valid ways of its set it is at least as recent
// as.
func (l *tickLISP) ranked() LISPState {
	var st LISPState
	for _, set := range l.sets {
		for _, e := range set {
			if !e.valid {
				st.Entries = append(st.Entries, LISPEntryState{})
				continue
			}
			var rank uint32
			for _, o := range set {
				if o.valid && o.lru <= e.lru {
					rank++
				}
			}
			st.Entries = append(st.Entries, LISPEntryState{Valid: true, Rank: rank, PC: e.pc})
		}
	}
	return st
}

// sameOrder reports whether two oracles hold the same entries in the
// same ways with the same recency order in every set.
func sameOrder(a, b *tickLISP) bool {
	for s := range a.sets {
		sa, sb := a.sets[s], b.sets[s]
		for i := range sa {
			if sa[i].valid != sb[i].valid || sa[i].pc != sb[i].pc {
				return false
			}
			for j := range sa {
				if sa[i].valid && sa[j].valid && (sa[i].lru < sa[j].lru) != (sb[i].lru < sb[j].lru) {
					return false
				}
			}
		}
	}
	return true
}

var lispGeometries = []struct {
	name string
	cfg  LISPConfig
}{
	{"1-way", LISPConfig{Entries: 16, Assoc: 1}},
	{"2-way", LISPConfig{Entries: 16}},
	{"4-way", LISPConfig{Entries: 16, Assoc: 4}},
	{"full", LISPConfig{Entries: 8, Assoc: 8}},
}

// TestLISPMatchesTickOracle drives the rank LISP and the tick oracle
// with one random stream of suppression lookups and training inserts
// per geometry: every Suppress answer agrees, and after every operation
// the rank LISP's State is exactly the oracle's contents ranked — the
// same (Valid, PC) in every way and the same recency order.
func TestLISPMatchesTickOracle(t *testing.T) {
	for _, g := range lispGeometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			l, o := NewLISP(g.cfg), newTickLISP(g.cfg)
			for op := 0; op < 20000; op++ {
				pc := uint64(rng.Intn(48)) * 4 // three times the entries: conflicts in every set
				if rng.Intn(3) == 0 {
					l.Train(pc)
					o.Train(pc)
				} else if got, want := l.Suppress(pc), o.Suppress(pc); got != want {
					t.Fatalf("op %d: Suppress(%#x) = %v, oracle %v", op, pc, got, want)
				}
				if st := l.State(); !reflect.DeepEqual(st, o.ranked()) {
					t.Fatalf("op %d: state %+v, oracle ranked %+v", op, st.Entries, o.ranked().Entries)
				}
			}
		})
	}
}

// TestLISPStateEqualIffSameOrder runs pairs of LISPs on one random
// stream, each operation applied to both or, now and then, to one of
// them only, so they diverge and converge again: their States are
// equal exactly when their oracles hold the same entries in the same
// recency order.
func TestLISPStateEqualIffSameOrder(t *testing.T) {
	for _, g := range lispGeometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			la, lb := NewLISP(g.cfg), NewLISP(g.cfg)
			oa, ob := newTickLISP(g.cfg), newTickLISP(g.cfg)
			var equal, differ int
			for op := 0; op < 20000; op++ {
				pc := uint64(rng.Intn(24)) * 4
				train := rng.Intn(2) == 0
				only := rng.Intn(8) // 0: a only, 1: b only, else both
				for k, p := range []struct {
					l *LISP
					o *tickLISP
				}{{la, oa}, {lb, ob}} {
					if only == 1-k {
						continue
					}
					if train {
						p.l.Train(pc)
						p.o.Train(pc)
					} else {
						p.l.Suppress(pc)
						p.o.Suppress(pc)
					}
				}
				eq := reflect.DeepEqual(la.State(), lb.State())
				if eq != sameOrder(oa, ob) {
					t.Fatalf("op %d: states equal = %v, oracles in the same order = %v", op, eq, !eq)
				}
				if eq {
					equal++
				} else {
					differ++
				}
			}
			if equal == 0 || differ == 0 {
				t.Errorf("stream never exercised both outcomes: %d equal, %d differing", equal, differ)
			}
		})
	}
}

// TestLISPSetStateRejectsBrokenRanks: a snapshot whose set breaks the
// rank invariant is an error, not a panic, and leaves the LISP as it was.
func TestLISPSetStateRejectsBrokenRanks(t *testing.T) {
	l := NewLISP(LISPConfig{Entries: 8, Assoc: 4}) // 2 sets
	// Set 0 holds two entries, set 1 none.
	good := LISPState{Entries: []LISPEntryState{
		{Valid: true, Rank: 2, PC: 0x100}, {Valid: true, Rank: 1, PC: 0x108}, {}, {},
		{}, {}, {}, {},
	}}
	if err := l.SetState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(es []LISPEntryState)
	}{
		{"rank zero", func(es []LISPEntryState) { es[0].Rank = 0 }},
		{"rank above the valid count", func(es []LISPEntryState) { es[0].Rank = 3 }},
		{"rank past the ways", func(es []LISPEntryState) { es[0].Rank = 1 << 30 }},
		{"duplicate rank", func(es []LISPEntryState) { es[0].Rank = es[1].Rank }},
		{"ranked invalid way", func(es []LISPEntryState) { es[2].Rank = 1 }},
		{"invalid way with a PC", func(es []LISPEntryState) { es[3].PC = 0x100 }},
		{"valid way without a rank", func(es []LISPEntryState) { es[5] = LISPEntryState{Valid: true, PC: 0x104} }},
	} {
		st := LISPState{Entries: append([]LISPEntryState(nil), good.Entries...)}
		c.mutate(st.Entries)
		if err := l.SetState(st); err == nil {
			t.Errorf("%s: accepted %+v", c.name, st.Entries)
		}
		if !reflect.DeepEqual(l.State(), good) {
			t.Fatalf("%s: a rejected state changed the LISP", c.name)
		}
	}
}

// TestLISPReset: a reset LISP is indistinguishable from a new one.
func TestLISPReset(t *testing.T) {
	l := NewLISP(LISPConfig{})
	l.Train(0x40)
	l.Suppress(0x40)
	l.Reset()
	if !reflect.DeepEqual(l, NewLISP(LISPConfig{})) {
		t.Error("reset LISP differs from a new one")
	}
}

// TestLISPChanged: after SetState or Reset, Changed stays false through
// suppression misses and hits on a set's most recent way — and State
// still equals what was set — and turns true on a hit that reorders a
// set or on any Train.
func TestLISPChanged(t *testing.T) {
	l := NewLISP(LISPConfig{Entries: 8, Assoc: 2}) // 4 sets
	a, b := uint64(0x10), uint64(0x20)             // both in set 0
	l.Train(a)
	l.Train(b) // b is set 0's most recent
	if !l.Changed() {
		t.Fatal("Train left Changed false")
	}
	st := l.State()
	if err := l.SetState(st); err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{b, 0x14, b, 0x18} {
		l.Suppress(pc) // a hit on the most recent way, or a miss
		if l.Changed() {
			t.Fatalf("Suppress(%#x) that reorders nothing set Changed", pc)
		}
	}
	if !reflect.DeepEqual(l.State(), st) {
		t.Fatal("State moved while Changed stayed false")
	}
	if !l.Suppress(a) || !l.Changed() {
		t.Fatal("a hit that reorders its set left Changed false")
	}
	l.Reset()
	if l.Changed() {
		t.Fatal("Reset left Changed true")
	}
	l.Train(0x30)
	if !l.Changed() {
		t.Fatal("Train after Reset left Changed false")
	}

	// Random streams: whenever Changed is false, State is still the
	// state last set.
	rng := rand.New(rand.NewSource(24))
	for _, g := range lispGeometries {
		l := NewLISP(g.cfg)
		for round := 0; round < 200; round++ {
			st := l.State()
			if err := l.SetState(st); err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 20; op++ {
				pc := uint64(rng.Intn(2*g.cfg.Entries)) * 4
				if rng.Intn(8) == 0 {
					l.Train(pc)
				} else {
					l.Suppress(pc)
				}
				if !l.Changed() && !reflect.DeepEqual(l.State(), st) {
					t.Fatalf("%s round %d: State moved while Changed stayed false", g.name, round)
				}
			}
		}
	}
}
