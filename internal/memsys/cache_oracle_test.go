package memsys

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// tickCache is the cache as a global recency clock: every access stamps
// the line it touches with the next tick, and a miss fills the first
// invalid way, else the way with the smallest stamp. It is the oracle
// the age-ordered Cache is checked against.
type tickCache struct {
	sets                         [][]tickLine
	setShift, setBits            uint
	setMask                      uint64
	tick                         uint64
	Accesses, Misses, Writebacks uint64
}

type tickLine struct {
	valid, dirty bool
	tag, lru     uint64
}

func newTickCache(cfg CacheConfig) *tickCache {
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	c := &tickCache{sets: make([][]tickLine, nSets),
		setShift: log2(uint64(cfg.LineBytes)), setBits: log2(uint64(nSets)), setMask: uint64(nSets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]tickLine, cfg.Assoc)
	}
	return c
}

func (c *tickCache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.tick++
	c.Accesses++
	setIdx := (addr >> c.setShift) & c.setMask
	set := c.sets[setIdx]
	tag := addr >> c.setShift >> c.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return true, 0, false
		}
	}
	c.Misses++
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[vi].lru {
				vi = i
			}
		}
	}
	if set[vi].valid && set[vi].dirty {
		victimDirty = true
		victim = (set[vi].tag<<c.setBits | setIdx) << c.setShift
		c.Writebacks++
	}
	set[vi] = tickLine{valid: true, dirty: write, tag: tag, lru: c.tick}
	return false, victim, victimDirty
}

// copyFrom makes c a deep copy of src's lines and clock and zeroes the
// tallies: the oracle's SetState and CopyFrom alike.
func (c *tickCache) copyFrom(src *tickCache) {
	for i := range c.sets {
		copy(c.sets[i], src.sets[i])
	}
	c.tick = src.tick
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
}

// aged is the oracle's contents as the age-ordered cache's State: each
// valid line aged by how many valid lines of its set are more recent.
func (c *tickCache) aged() CacheState {
	var st CacheState
	for _, set := range c.sets {
		for _, l := range set {
			if !l.valid {
				st.Lines = append(st.Lines, CacheLineState{})
				continue
			}
			var age uint16
			for _, o := range set {
				if o.valid && o.lru > l.lru {
					age++
				}
			}
			st.Lines = append(st.Lines, CacheLineState{Tag: l.tag, Age: age, Valid: true, Dirty: l.dirty})
		}
	}
	return st
}

var cacheGeometries = []struct {
	name string
	cfg  CacheConfig
}{
	{"1-way", CacheConfig{Name: "t", SizeBytes: 512, LineBytes: 32, Assoc: 1}},
	{"2-way", CacheConfig{Name: "t", SizeBytes: 512, LineBytes: 32, Assoc: 2}},
	{"4-way", CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 4}},
	{"8-way", CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 8}},
	{"full", CacheConfig{Name: "t", SizeBytes: 512, LineBytes: 32, Assoc: 16}},
	{"full-128", CacheConfig{Name: "t", SizeBytes: 4096, LineBytes: 32, Assoc: 128}},
	{"2-way-64-sets", CacheConfig{Name: "t", SizeBytes: 4096, LineBytes: 32, Assoc: 2}}, // 4 stamp groups
	{"1-way-256-sets", CacheConfig{Name: "t", SizeBytes: 8192, LineBytes: 32, Assoc: 1}},
}

// TestCacheMatchesTickOracle drives age-ordered caches and tick-clock
// oracles with one random stream per geometry: reads and writes over
// footprints that fit, conflict and thrash (with runs of repeats to the
// same line, the last-line fast path), broken by SetState and CopyFrom
// between the pairs. Every Access result and every tally agrees, and
// after every operation each cache's State is exactly its oracle's
// contents aged.
func TestCacheMatchesTickOracle(t *testing.T) {
	for gi, g := range cacheGeometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(24, uint64(gi)))
			const n = 3
			var cs [n]*Cache
			var os [n]*tickCache
			for i := range cs {
				cs[i], os[i] = NewCache(g.cfg), newTickCache(g.cfg)
			}
			check := func(step, i int) {
				t.Helper()
				c, o := cs[i], os[i]
				if c.Accesses != o.Accesses || c.Misses != o.Misses || c.Writebacks != o.Writebacks {
					t.Fatalf("step %d cache %d: tallies %d/%d/%d, oracle %d/%d/%d", step, i,
						c.Accesses, c.Misses, c.Writebacks, o.Accesses, o.Misses, o.Writebacks)
				}
				got, want := c.State().Lines, o.aged().Lines
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("step %d cache %d line %d: %+v, oracle aged %+v", step, i, j, got[j], want[j])
					}
				}
			}
			lines := uint64(g.cfg.SizeBytes / g.cfg.LineBytes)
			var addr uint64
			for step := 0; step < 20000; step++ {
				i, j := rng.IntN(n), rng.IntN(n)
				switch r := rng.IntN(100); {
				case r < 2:
					if err := cs[i].SetState(cs[j].State()); err != nil {
						t.Fatal(err)
					}
					os[i].copyFrom(os[j])
				case r < 4:
					if err := cs[i].CopyFrom(cs[j]); err != nil {
						t.Fatal(err)
					}
					os[i].copyFrom(os[j])
				default:
					if rng.IntN(3) > 0 { // a new line, else the last one again
						span := []uint64{lines / 2, lines * 2, lines * 16}[rng.IntN(3)]
						addr = rng.Uint64N(span*uint64(g.cfg.LineBytes)) + 1<<40
					}
					write := rng.IntN(4) == 0
					h1, v1, d1 := cs[i].Access(addr, write)
					h2, v2, d2 := os[i].Access(addr, write)
					if h1 != h2 || v1 != v2 || d1 != d2 {
						t.Fatalf("step %d cache %d: Access(%#x, %v) = %v %#x %v, oracle %v %#x %v",
							step, i, addr, write, h1, v1, d1, h2, v2, d2)
					}
				}
				check(step, i)
			}
		})
	}
}

// TestCacheSetStateRejectsBrokenAges feeds SetState snapshots whose
// sets are not an age order: each is an error, not a panic, and leaves
// the cache as it was.
func TestCacheSetStateRejectsBrokenAges(t *testing.T) {
	for _, g := range cacheGeometries {
		if g.cfg.Assoc < 2 {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			c := NewCache(g.cfg)
			for i := 0; i < 4*g.cfg.SizeBytes/g.cfg.LineBytes; i++ {
				c.Access(uint64(i*g.cfg.LineBytes*3), i%3 == 0)
			}
			good := c.State()
			if err := NewCache(g.cfg).SetState(good); err != nil {
				t.Fatalf("a live cache's own state rejected: %v", err)
			}
			last := g.cfg.Assoc - 1 // set 0's last way
			for name, breakIt := range map[string]func(l []CacheLineState){
				"duplicate age":  func(l []CacheLineState) { l[last].Age = l[0].Age },
				"age too large":  func(l []CacheLineState) { l[last].Age = uint16(g.cfg.Assoc) },
				"age 64 above":   func(l []CacheLineState) { l[last].Age += 64 },
				"invalid tagged": func(l []CacheLineState) { l[last] = CacheLineState{Tag: 5} },
				"invalid aged":   func(l []CacheLineState) { l[last] = CacheLineState{Age: 1} },
				"most recent dropped": func(l []CacheLineState) {
					for i := range l[:last+1] {
						if l[i].Age == 0 {
							l[i] = CacheLineState{} // the rest are aged 1..k-1
						}
					}
				},
			} {
				bad := CacheState{Lines: append([]CacheLineState(nil), good.Lines...)}
				breakIt(bad.Lines)
				if err := c.SetState(bad); err == nil {
					t.Errorf("%s: accepted", name)
				}
				if st := c.State(); len(st.Lines) != len(good.Lines) || st.Lines[last] != good.Lines[last] || st.Lines[0] != good.Lines[0] {
					t.Errorf("%s: a rejected state changed the cache", name)
				}
			}
		})
	}
}

// TestCacheLineSize pins the 16-byte line: the L2's tag array is 512 KB,
// and a 2-way L1 set fits half a host cache line.
func TestCacheLineSize(t *testing.T) {
	if n := unsafe.Sizeof(CacheLineState{}); n != 16 {
		t.Errorf("CacheLineState is %d bytes, want 16", n)
	}
}
