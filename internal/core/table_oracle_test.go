package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rix/internal/isa"
	"rix/internal/regfile"
)

// naiveTable is the integration table as it was before rename found an
// instruction's set once: every Match and Insert indexes its key by
// modulo, and Insert takes the whole entry by value. It is the oracle
// Table is checked against.
type naiveTable struct {
	cfg         TableConfig
	sets        [][]Entry
	tick, stamp uint64

	Lookups, Matches, Inserts, Replaced uint64
}

func newNaiveTable(cfg TableConfig) *naiveTable {
	cfg = cfg.withDefaults()
	t := &naiveTable{cfg: cfg, sets: make([][]Entry, max(cfg.Entries/cfg.Assoc, 1))}
	for i := range t.sets {
		t.sets[i] = make([]Entry, cfg.Assoc)
	}
	return t
}

func (t *naiveTable) index(k Key) int {
	n := uint64(len(t.sets))
	if t.cfg.Mode == IndexPC {
		return int((k.PC >> 2) % n)
	}
	mix := uint64(k.Op)
	mix ^= uint64(k.Imm) ^ uint64(k.Imm)>>7
	if t.cfg.UseCallDepth {
		mix ^= uint64(k.Depth) << 2
	}
	return int(mix % n)
}

func (t *naiveTable) tagMatch(e *Entry, k Key) bool {
	if !e.valid {
		return false
	}
	if t.cfg.Mode == IndexPC {
		return e.pc == k.PC && e.op == k.Op && e.imm == k.Imm
	}
	return e.op == k.Op && e.imm == k.Imm
}

// Match returns the matching entry's way, or -1.
func (t *naiveTable) Match(k Key, in1 regfile.PReg, in1Gen uint8, in2 regfile.PReg, in2Gen uint8) int {
	t.Lookups++
	set := t.sets[t.index(k)]
	for i := range set {
		e := &set[i]
		if !t.tagMatch(e, k) || e.in1 != in1 || e.in2 != in2 {
			continue
		}
		if e.in1 != regfile.NoReg && e.in1Gen != in1Gen {
			continue
		}
		if e.in2 != regfile.NoReg && e.in2Gen != in2Gen {
			continue
		}
		t.tick++
		e.lru = t.tick
		t.Matches++
		return i
	}
	return -1
}

// Insert returns the way it wrote.
func (t *naiveTable) Insert(k Key, e Entry) int {
	t.Inserts++
	t.tick++
	t.stamp++
	set := t.sets[t.index(k)]
	victim := 0
	found := false
	for i := range set {
		c := &set[i]
		if t.tagMatch(c, k) && c.in1 == e.in1 && c.in2 == e.in2 && c.reverse == e.reverse {
			victim, found = i, true
			break
		}
		if !c.valid {
			if !found {
				victim, found = i, true
			}
			continue
		}
		if !found && c.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && !found {
		t.Replaced++
	}
	e.valid = true
	e.pc = k.PC
	e.op = k.Op
	e.imm = k.Imm
	e.lru = t.tick
	e.stamp = t.stamp
	set[victim] = e
	return victim
}

// wayOf returns e's way in set, or -1 when e is nil.
func wayOf(set []Entry, e *Entry) int {
	for i := range set {
		if &set[i] == e {
			return i
		}
	}
	return -1
}

// TestTableMatchesNaiveOracle drives Table and the naive table with one
// random stream of lookups, inserts (direct, branch and reverse) and
// invalidations per geometry and indexing mode: the Fig. 6 geometries
// (1-, 2- and 4-way and fully associative at 64, 256, 1K and 4K entries)
// and one set count that is not a power of two. Every key lands in the
// oracle's set, every Match and Insert picks the oracle's way, the set
// holds the oracle's entries after every operation (every 256th for a
// fully associative table of more than 64 ways) and at the end, and the
// tallies agree.
func TestTableMatchesNaiveOracle(t *testing.T) {
	var cfgs []TableConfig
	for _, entries := range []int{64, 256, 1024, 4096} {
		for _, assoc := range []int{1, 2, 4, 0} {
			cfgs = append(cfgs, TableConfig{Entries: entries, Assoc: assoc})
		}
	}
	cfgs = append(cfgs, TableConfig{Entries: 96, Assoc: 4}) // 24 sets
	modes := []struct {
		mode  IndexMode
		depth bool
	}{{IndexPC, false}, {IndexOpcode, true}, {IndexOpcode, false}}
	ops := []isa.Opcode{isa.ADDQ, isa.ADDQI, isa.LDQ, isa.LDA, isa.BNE}
	for ci, base := range cfgs {
		for mi, m := range modes {
			cfg := base
			cfg.Mode, cfg.UseCallDepth = m.mode, m.depth
			t.Run(fmt.Sprintf("%d/%d-way/mode%d", cfg.Entries, cfg.Assoc, mi), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(24 + 10*ci + mi)))
				tb, or := NewTable(cfg), newNaiveTable(cfg)
				type record struct {
					set, way int
					stamp    uint64
				}
				var live []record // the records Insert wrote, for invalidation
				// Enough steps to fill every set several times over; half
				// of them repeat a recent key and inputs, so lookups match
				// and inserts refresh.
				type operands struct {
					k              Key
					in1, in2       regfile.PReg
					in1Gen, in2Gen uint8
				}
				var recent [32]operands
				nOps := 5*cfg.Entries + 3000
				preg := func() regfile.PReg {
					if rng.Intn(4) == 0 {
						return regfile.NoReg
					}
					return regfile.PReg(rng.Intn(24))
				}
				for step := 0; step < nOps; step++ {
					o := &recent[rng.Intn(len(recent))]
					if step < len(recent) || rng.Intn(2) == 0 {
						*o = operands{
							k: Key{
								PC:    uint64(0x1000 + 4*rng.Intn(3*cfg.Entries)),
								Op:    ops[rng.Intn(len(ops))],
								Imm:   int64(rng.Intn(128)*8 - 64),
								Depth: rng.Intn(8),
							},
							in1: preg(), in2: preg(), in1Gen: uint8(rng.Intn(3)), in2Gen: uint8(rng.Intn(3)),
						}
					}
					k, in1, in2, g1, g2 := o.k, o.in1, o.in2, o.in1Gen, o.in2Gen
					set := tb.Index(k)
					if want := or.index(k); set != want {
						t.Fatalf("step %d: Index(%+v) = %d, oracle %d", step, k, set, want)
					}
					switch r := rng.Intn(10); {
					case r < 5:
						got := wayOf(tb.sets[set], tb.Match(k, set, in1, g1, in2, g2))
						if want := or.Match(k, in1, g1, in2, g2); got != want {
							t.Fatalf("step %d: Match way %d, oracle %d", step, got, want)
						}
					case r < 9:
						e := Entry{in1: in1, in1Gen: g1, in2: in2, in2Gen: g2,
							out: regfile.PReg(rng.Intn(64)), outGen: uint8(rng.Intn(4)),
							createdSeq: uint64(step)}
						switch rng.Intn(4) {
						case 0:
							e.in2, e.in2Gen, e.out, e.outGen = regfile.NoReg, 0, regfile.NoReg, 0
							e.isBranch, e.taken = true, rng.Intn(2) == 0
						case 1:
							e.in2, e.in2Gen, e.reverse = regfile.NoReg, 0, true
						}
						v := insert(tb, k, e)
						got := wayOf(tb.sets[set], v)
						if want := or.Insert(k, e); got != want {
							t.Fatalf("step %d: Insert way %d, oracle %d", step, got, want)
						}
						live = append(live, record{set, got, v.stamp})
					default:
						// Invalidate a record inserted earlier: its way may
						// have been overwritten since, leaving the stamp stale.
						if len(live) > 0 {
							r := live[rng.Intn(len(live))]
							tb.Invalidate(&tb.sets[r.set][r.way], r.stamp)
							if oe := &or.sets[r.set][r.way]; oe.valid && oe.stamp == r.stamp {
								oe.valid = false
							}
							set = r.set
						}
					}
					if len(tb.sets[set]) > 64 && step%256 != 0 {
						continue // a large set is compared every 256 steps
					}
					for w := range tb.sets[set] {
						if got, want := tb.sets[set][w], or.sets[set][w]; got != want {
							t.Fatalf("step %d: set %d way %d holds %+v, oracle %+v", step, set, w, got, want)
						}
					}
				}
				for s := range tb.sets {
					for w := range tb.sets[s] {
						if tb.sets[s][w] != or.sets[s][w] {
							t.Fatalf("end: set %d way %d differs from the oracle", s, w)
						}
					}
				}
				if tb.Matches == 0 || tb.Replaced == 0 {
					t.Fatalf("the stream never matched (%d) or never replaced (%d)", tb.Matches, tb.Replaced)
				}
				if tb.Lookups != or.Lookups || tb.Matches != or.Matches || tb.Inserts != or.Inserts || tb.Replaced != or.Replaced {
					t.Fatalf("tallies %d/%d/%d/%d, oracle %d/%d/%d/%d", tb.Lookups, tb.Matches, tb.Inserts, tb.Replaced,
						or.Lookups, or.Matches, or.Inserts, or.Replaced)
				}
			})
		}
	}
}
