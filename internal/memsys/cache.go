// Package memsys implements the timing model of the paper's §3.1 memory
// system: L1 instruction and data caches, a unified L2, instruction and
// data TLBs with hardware miss handling, MSHRs for non-blocking misses, a
// retirement write buffer, and cycle-accounted backside and memory buses.
//
// The model is latency-forwarding: each access computes the absolute
// cycle at which its data arrives, reserving bus slots and MSHRs along
// the way. This is the standard fidelity class for simulators of this
// kind — contention appears as busy-until reservations rather than
// per-cycle queue stepping.
package memsys

import "sync/atomic"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency uint64 // cycles from access to data
}

// cacheLine is stored in its serialized form, so State and SetState
// are each one copy of the line array.
type cacheLine = CacheLineState

// Cache is a set-associative, write-back, write-allocate tag array (data
// values live in the architectural memory; the cache models timing only).
//
// Each set carries a stamp naming its contents. Stamp 0 is the cold,
// all-invalid set; every Access and every SetState gives the sets it
// writes a stamp no cache in the process has used before, and CopyFrom
// carries the source set's stamp along. Equal stamps therefore imply
// equal lines, so CopyFrom moves only the sets whose stamps differ.
type Cache struct {
	cfg      CacheConfig
	lines    []cacheLine   // every line, set-major
	sets     [][]cacheLine // lines sliced per set
	stamps   []uint64      // per set: the stamp of its contents
	setShift uint
	setBits  uint // log2 of the set count
	setMask  uint64
	tick     uint64

	// [nextStamp, endStamp) is the block of stamps this cache has
	// reserved from stampClock and not yet used.
	nextStamp, endStamp uint64

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// NewCache builds a cache; sizes must divide evenly.
func NewCache(cfg CacheConfig) *Cache {
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("memsys: set count must be a positive power of two: " + cfg.Name)
	}
	c := &Cache{cfg: cfg, sets: make([][]cacheLine, nSets), stamps: make([]uint64, nSets),
		setShift: log2(uint64(cfg.LineBytes)), setBits: log2(uint64(nSets)), setMask: uint64(nSets - 1)}
	// One flat backing array sliced per set: building a pipeline is two
	// allocations per cache, not one per set.
	c.lines = make([]cacheLine, nLines)
	lines := c.lines
	for i := range c.sets {
		c.sets[i], lines = lines[:cfg.Assoc:cfg.Assoc], lines[cfg.Assoc:]
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr maps an address to its line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Probe reports whether addr hits without updating any state (used by
// tests and by the hierarchy to overlap L1 hits under misses).
func (c *Cache) Probe(addr uint64) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift >> c.setBits
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, allocating the line on a miss. It returns whether
// it hit and, when a dirty victim was displaced, its line address.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.tick++
	c.Accesses++
	setIdx := (addr >> c.setShift) & c.setMask
	set := c.sets[setIdx]
	c.stamps[setIdx] = c.stamp() // a hit updates a line's LRU time, a miss fills a way
	tag := addr >> c.setShift >> c.setBits
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			set[i].LRU = c.tick
			if write {
				set[i].Dirty = true
			}
			return true, 0, false
		}
	}
	c.Misses++
	// Miss: prefer an invalid way, otherwise evict the LRU way.
	vi := -1
	for i := range set {
		if !set[i].Valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].LRU < set[vi].LRU {
				vi = i
			}
		}
	}
	if set[vi].Valid && set[vi].Dirty {
		victimDirty = true
		victim = (set[vi].Tag<<c.setBits | setIdx) << c.setShift
		c.Writebacks++
	}
	set[vi] = cacheLine{Valid: true, Dirty: write, Tag: tag, LRU: c.tick}
	return false, victim, victimDirty
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// stampClock issues set stamps to every cache in the process, a block
// at a time; it starts at 0, which is never issued.
var stampClock atomic.Uint64

// stampBlock is how many stamps a cache reserves at once.
const stampBlock = 1 << 12

// stamp returns a set stamp no cache has used before.
func (c *Cache) stamp() uint64 {
	if c.nextStamp == c.endStamp {
		end := stampClock.Add(stampBlock)
		c.nextStamp, c.endStamp = end-stampBlock+1, end+1
	}
	s := c.nextStamp
	c.nextStamp++
	return s
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
