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
// Recency is an age within each set, not a global clock: a set's k
// valid lines hold ages 0..k-1, the most recent 0, and invalid lines are
// all zero. A miss fills the first invalid way, else evicts the oldest
// line. A hit on a set's most recent line therefore changes nothing
// unless it sets the line's dirty bit.
//
// Each set carries a stamp naming its contents, renewed only when they
// change. Stamp 0 is the cold, all-invalid set; an Access that changes a
// set's contents (a miss, a hit that reorders the set or sets a dirty
// bit) and every SetState give the sets they write a stamp no cache in
// the process has used before, and CopyFrom carries the source set's
// stamp along. Equal stamps therefore imply equal lines, so CopyFrom
// moves only the sets whose stamps differ. Each group of groupSets
// consecutive sets carries a stamp too, renewed with any of its sets',
// so CopyFrom compares set stamps only inside the groups that differ.
type Cache struct {
	// The fields a repeated line's access reads come first.
	Accesses uint64
	setShift uint
	setMask  uint64

	// last is the index in lines of the line the previous Access
	// touched, and lastKey its line number (address >> setShift); last
	// is -1 when no Access has run since construction, SetState or
	// CopyFrom. That line is its set's most recent, so repeating it
	// needs no search.
	last    int
	lastKey uint64

	lines   []cacheLine // every line, set-major: set i is lines[i*assoc:(i+1)*assoc]
	assoc   int
	setBits uint     // log2 of the set count
	stamps  []uint64 // per set: the stamp of its contents
	groups  []uint64 // per group of groupSets sets: the stamp of their contents

	// [nextStamp, endStamp) is the block of stamps this cache has
	// reserved from stampClock and not yet used.
	nextStamp, endStamp uint64

	Misses     uint64
	Writebacks uint64

	cfg CacheConfig
}

// groupSets is how many consecutive sets share a group stamp: in a
// sampled run's boundary copies, the L2 sets that differ cluster enough
// that groups of 16 cut the stamps compared per copy about threefold.
const (
	groupShift = 4
	groupSets  = 1 << groupShift
)

// maxAssoc is the most ways a set may have: SetState checks a set's
// ages as the bits of one word (checkAges).
const maxAssoc = 64

// NewCache builds a cache; sizes must divide evenly.
func NewCache(cfg CacheConfig) *Cache {
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("memsys: set count must be a positive power of two: " + cfg.Name)
	}
	if cfg.Assoc > maxAssoc {
		panic("memsys: more than 64 ways: " + cfg.Name)
	}
	return &Cache{
		setShift: log2(uint64(cfg.LineBytes)), setMask: uint64(nSets - 1), last: -1,
		lines: make([]cacheLine, nLines), assoc: cfg.Assoc, setBits: log2(uint64(nSets)),
		stamps: make([]uint64, nSets), groups: make([]uint64, (nSets+groupSets-1)/groupSets),
		cfg: cfg,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr maps an address to its line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Probe reports whether addr hits without updating any state. Only
// tests call it: the hierarchy's accesses go through Access.
func (c *Cache) Probe(addr uint64) bool {
	set := c.set((addr >> c.setShift) & c.setMask)
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
//
//rix:hotpath
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.Accesses++
	key := addr >> c.setShift
	setIdx := key & c.setMask
	if key == c.lastKey && c.last >= 0 {
		// The previous access's line, still its set's most recent.
		if l := &c.lines[c.last]; write && !l.Dirty {
			l.Dirty = true
			c.renew(setIdx)
		}
		return true, 0, false
	}
	base := int(setIdx) * c.assoc
	set := c.lines[base : base+c.assoc]
	tag := key >> c.setBits
	for i := range set {
		l := &set[i]
		if !l.Valid || l.Tag != tag {
			continue
		}
		c.last, c.lastKey = base+i, key
		if l.Age == 0 && (l.Dirty || !write) {
			return true, 0, false // already most recent: nothing changes
		}
		if age := l.Age; age > 0 {
			for j := range set {
				if set[j].Valid && set[j].Age < age {
					set[j].Age++
				}
			}
			l.Age = 0
		}
		l.Dirty = l.Dirty || write
		c.renew(setIdx)
		return true, 0, false
	}
	c.Misses++
	c.renew(setIdx)
	// Miss: the first invalid way, else the oldest line. Every valid
	// line ages by one; the victim's slot is then overwritten.
	vi, inv := 0, -1
	var oldest uint16
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if inv < 0 {
				inv = i
			}
			continue
		}
		if l.Age >= oldest {
			vi, oldest = i, l.Age
		}
		l.Age++
	}
	if inv >= 0 {
		vi = inv
	}
	if l := &set[vi]; l.Valid && l.Dirty {
		victimDirty = true
		victim = (l.Tag<<c.setBits | setIdx) << c.setShift
		c.Writebacks++
	}
	set[vi] = cacheLine{Tag: tag, Valid: true, Dirty: write}
	c.last, c.lastKey = base+vi, key
	return false, victim, victimDirty
}

// set returns set i's lines.
func (c *Cache) set(i uint64) []cacheLine {
	base := int(i) * c.assoc
	return c.lines[base : base+c.assoc]
}

// stampClock issues set stamps to every cache in the process, a block
// at a time; it starts at 0, which is never issued.
var stampClock atomic.Uint64

// stampBlock is how many stamps a cache reserves at once.
const stampBlock = 1 << 12

// renew gives set setIdx, and its group, a stamp no cache has used
// before: its contents changed.
func (c *Cache) renew(setIdx uint64) {
	s := c.stamp()
	c.stamps[setIdx] = s
	c.groups[setIdx>>groupShift] = s
}

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
