package memsys

import "fmt"

// This file holds the serializable tag-state snapshots of the memory
// hierarchy, plus the Warm* accessors the sampling subsystem's functional
// fast-forward uses to keep cache and TLB contents hot without paying for
// (or perturbing) the timing model. Snapshots capture behavioral state —
// line tags, dirty bits and each line's age within its set — so a
// restored hierarchy makes byte-identical replacement decisions;
// transient timing state (MSHRs, write buffer, bus reservations) is empty
// at an instruction boundary by construction and is not serialized.
//
// SetState (SetWarmState for the hierarchy) restores a snapshot: it
// checks the geometry and every set's ages, copies every line, gives
// every set a fresh stamp, zeroes every diagnostic tally and, for the
// hierarchy, empties the timing state. CopyFrom (CopyWarmFrom for the
// hierarchy) is the allocation-free refill of one live structure from
// another of the same geometry: it leaves the structure exactly as
// SetState of the source's snapshot would, but copies only the sets
// whose stamps differ (see Cache), so a sampled run's ring refill and
// window boot move what either side changed since they last matched,
// not the whole hierarchy. Stamps are not serialized: the CacheState
// wire format is the lines alone.

// CacheLineState is one line's serializable tag state. Age is the
// line's recency within its set: 0..k-1 over the set's k valid lines,
// the most recent 0; an invalid line is all zero.
type CacheLineState struct {
	Tag          uint64
	Age          uint16
	Valid, Dirty bool
}

// CacheState is the serializable tag state of one cache (or of a TLB's
// backing tag array): lines flattened set-major. It holds no clock:
// equal states make equal decisions.
type CacheState struct {
	Lines []CacheLineState
}

// State deep-copies the cache's tag state.
func (c *Cache) State() CacheState {
	return CacheState{Lines: append([]CacheLineState(nil), c.lines...)}
}

// SetState restores a snapshot, stamps every set afresh and zeroes the
// tallies. The geometry (total line count) must match, and every set
// must hold an age order: its k valid lines aged 0..k-1 once each, its
// invalid lines all zero. A snapshot that breaks either is an error and
// leaves the cache as it was.
func (c *Cache) SetState(st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("memsys: %s state has %d lines, want %d",
			c.cfg.Name, len(st.Lines), len(c.lines))
	}
	if err := checkAges(st.Lines, c.assoc); err != nil {
		return fmt.Errorf("memsys: %s state %w", c.cfg.Name, err)
	}
	copy(c.lines, st.Lines)
	for i := range c.stamps {
		c.stamps[i] = c.stamp()
	}
	for i := range c.groups {
		c.groups[i] = c.stamp()
	}
	c.last = -1
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
	return nil
}

// checkAges reports the first set of lines, assoc ways each (at most
// 64), that does not hold an age order. Its valid lines' ages, as bits
// of one word, must fill the low k bits exactly once each; an age of 64
// or more is never one.
func checkAges(lines []CacheLineState, assoc int) error {
	var k, mask, wide uint64
	way := 0
	for i := range lines {
		l := &lines[i]
		if l.Valid {
			k++
			mask |= 1 << (l.Age & 63)
			wide |= uint64(l.Age >> 6)
		} else if *l != (CacheLineState{}) {
			return fmt.Errorf("set %d: invalid line holds %+v", i/assoc, *l)
		}
		if way++; way < assoc {
			continue
		}
		if wide != 0 || mask != 1<<k-1 {
			return fmt.Errorf("set %d: ages are not 0..%d once each", i/assoc, int(k)-1)
		}
		k, mask, way = 0, 0, 0
	}
	return nil
}

// CopyFrom overwrites c's tag state with src's and zeroes the tallies,
// without allocating: only the sets whose stamps differ, inside the
// groups whose stamps differ, are copied, and each set and group takes
// src's stamp. The geometries must match.
func (c *Cache) CopyFrom(src *Cache) error {
	if len(src.lines) != len(c.lines) || len(src.stamps) != len(c.stamps) {
		return fmt.Errorf("memsys: %s has %d lines in %d sets, want %d in %d",
			src.cfg.Name, len(src.lines), len(src.stamps), len(c.lines), len(c.stamps))
	}
	for g, gs := range src.groups {
		if c.groups[g] == gs {
			continue
		}
		lo := g << groupShift
		hi := min(lo+groupSets, len(src.stamps))
		for i, s := range src.stamps[lo:hi] {
			if c.stamps[lo+i] != s {
				copy(c.set(uint64(lo+i)), src.set(uint64(lo+i)))
				c.stamps[lo+i] = s
			}
		}
		c.groups[g] = gs
	}
	c.last = -1
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
	return nil
}

// State deep-copies the TLB's tag state.
func (t *TLB) State() CacheState { return t.cache.State() }

// SetState restores a TLB snapshot and zeroes the tallies.
func (t *TLB) SetState(st CacheState) error {
	if err := t.cache.SetState(st); err != nil {
		return err
	}
	t.Accesses, t.Misses = 0, 0
	return nil
}

// CopyFrom overwrites t's tag state with src's (Cache.CopyFrom) and
// zeroes the tallies.
func (t *TLB) CopyFrom(src *TLB) error {
	if err := t.cache.CopyFrom(&src.cache); err != nil {
		return err
	}
	t.Accesses, t.Misses = 0, 0
	return nil
}

// WarmState bundles the hierarchy state that functional warmup carries
// across fast-forwarded regions and into detailed measurement windows.
type WarmState struct {
	L1I, L1D, L2 CacheState
	ITLB, DTLB   CacheState
}

// WarmState snapshots every warmable structure.
func (h *Hierarchy) WarmState() WarmState {
	return WarmState{
		L1I:  h.L1I.State(),
		L1D:  h.L1D.State(),
		L2:   h.L2.State(),
		ITLB: h.ITLB.State(),
		DTLB: h.DTLB.State(),
	}
}

// SetWarmState restores a warm snapshot into a hierarchy of the same
// geometry, empties the transient timing state (MSHRs, write buffer,
// buses) and zeroes every diagnostic tally, hierarchy-wide: a reused
// hierarchy behaves bit-identically to a fresh one given the same
// snapshot.
func (h *Hierarchy) SetWarmState(st WarmState) error {
	if err := h.L1I.SetState(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.SetState(st.L1D); err != nil {
		return err
	}
	if err := h.L2.SetState(st.L2); err != nil {
		return err
	}
	if err := h.ITLB.SetState(st.ITLB); err != nil {
		return err
	}
	if err := h.DTLB.SetState(st.DTLB); err != nil {
		return err
	}
	h.resetTiming()
	return nil
}

// CopyWarmFrom overwrites h's warm tag state with src's without
// allocating, copying only the sets whose stamps differ, and resets
// the timing state and tallies as SetWarmState does: h ends exactly as
// SetWarmState(src.WarmState()) would leave it. The hierarchies must
// share a geometry.
func (h *Hierarchy) CopyWarmFrom(src *Hierarchy) error {
	if err := h.L1I.CopyFrom(src.L1I); err != nil {
		return err
	}
	if err := h.L1D.CopyFrom(src.L1D); err != nil {
		return err
	}
	if err := h.L2.CopyFrom(src.L2); err != nil {
		return err
	}
	if err := h.ITLB.CopyFrom(src.ITLB); err != nil {
		return err
	}
	if err := h.DTLB.CopyFrom(src.DTLB); err != nil {
		return err
	}
	h.resetTiming()
	return nil
}

// resetTiming empties the transient timing state (MSHRs, write buffer,
// buses) and zeroes the hierarchy-wide tallies.
func (h *Hierarchy) resetTiming() {
	h.MSHRs.Reset()
	h.WriteBuf.Reset()
	h.Backside.Reset()
	h.MemBus.Reset()
	h.LoadAccesses, h.StoreAccesses, h.IFetches = 0, 0, 0
}

// WarmFetch touches the instruction-side tag state for the fetch of pc:
// ITLB, L1I, and the L2 on an L1I miss. No timing is accounted.
func (h *Hierarchy) WarmFetch(pc uint64) {
	h.ITLB.Penalty(pc)
	if hit, _, _ := h.L1I.Access(pc, false); !hit {
		h.L2.Access(pc, false)
	}
}

// WarmLoad touches the data-side tag state for a load of addr.
func (h *Hierarchy) WarmLoad(addr uint64) {
	h.DTLB.Penalty(addr)
	if hit, _, _ := h.L1D.Access(addr, false); !hit {
		h.L2.Access(addr, false)
	}
}

// WarmStore touches the data-side tag state for a store to addr
// (write-allocate: the line lands dirty in the L1D, filling from L2 tags
// on a miss, exactly as the timing model's background allocate does).
func (h *Hierarchy) WarmStore(addr uint64) {
	h.DTLB.Penalty(addr)
	if hit, _, _ := h.L1D.Access(addr, true); !hit {
		h.L2.Access(addr, false)
	}
}
