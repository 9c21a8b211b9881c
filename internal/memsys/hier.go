package memsys

// Config carries every memory-system parameter from the paper's §3.1.
type Config struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	ITLBEntries    int
	ITLBAssoc      int
	DTLBEntries    int
	DTLBAssoc      int
	PageBytes      int
	TLBMissPenalty uint64

	MSHRs            int
	WriteBufEntries  int
	StoreForwardLat  uint64 // store-queue forward latency
	MemLatency       uint64 // main-memory access latency
	BacksideBusBytes int    // L1<->L2 bus width, processor frequency
	MemBusBytes      int    // L2<->memory bus width
	MemBusClockDiv   uint64 // memory bus clock divider
}

// DefaultConfig returns the paper's memory system: 64KB/2-way/32B L1I,
// 32KB/2-way/32B/2-cycle L1D, 2MB/4-way/64B/6-cycle L2, 64-entry 4-way
// ITLB, 128-entry 4-way DTLB, 30-cycle TLB miss, 16 MSHRs, 16-entry write
// buffer, 2-cycle store forwarding, 80-cycle memory, 32B buses (memory bus
// at quarter frequency).
func DefaultConfig() Config {
	return Config{
		L1I: CacheConfig{Name: "L1I", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1},
		L1D: CacheConfig{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2, HitLatency: 2},
		L2:  CacheConfig{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 4, HitLatency: 6},

		ITLBEntries: 64, ITLBAssoc: 4,
		DTLBEntries: 128, DTLBAssoc: 4,
		PageBytes:      4096,
		TLBMissPenalty: 30,

		MSHRs:            16,
		WriteBufEntries:  16,
		StoreForwardLat:  2,
		MemLatency:       80,
		BacksideBusBytes: 32,
		MemBusBytes:      32,
		MemBusClockDiv:   4,
	}
}

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	cfg Config

	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	MSHRs        *MSHRFile
	WriteBuf     *WriteBuffer
	Backside     *Bus
	MemBus       *Bus

	LoadAccesses  uint64
	StoreAccesses uint64
	IFetches      uint64
}

// New assembles the hierarchy.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:   cfg,
		L1I:   NewCache(cfg.L1I),
		L1D:   NewCache(cfg.L1D),
		L2:    NewCache(cfg.L2),
		ITLB:  NewTLB(cfg.ITLBEntries, cfg.ITLBAssoc, cfg.PageBytes, cfg.TLBMissPenalty),
		DTLB:  NewTLB(cfg.DTLBEntries, cfg.DTLBAssoc, cfg.PageBytes, cfg.TLBMissPenalty),
		MSHRs: NewMSHRFile(cfg.MSHRs),
		// The L1D write port is pipelined: the buffer drains one store
		// per cycle regardless of hit latency.
		WriteBuf: NewWriteBuffer(cfg.WriteBufEntries, 1),
		Backside: NewBus(cfg.BacksideBusBytes, 1),
		MemBus:   NewBus(cfg.MemBusBytes, cfg.MemBusClockDiv),
	}
}

// Config returns the hierarchy parameters.
func (h *Hierarchy) Config() Config { return h.cfg }

// fillFromBelow computes the completion cycle of an L1 line fill that
// begins at `start`, probing the L2 and main memory and reserving buses.
func (h *Hierarchy) fillFromBelow(l1 *Cache, addr uint64, start uint64) uint64 {
	l2Hit, l2Victim, l2VictimDirty := h.L2.Access(addr, false)
	var dataAt uint64
	if l2Hit {
		dataAt = start + h.cfg.L2.HitLatency
	} else {
		// L2 miss: main memory access plus line transfer over the memory
		// bus, then L2 latency on the way up.
		memStart := start + h.cfg.L2.HitLatency // tag check before going out
		arrive := memStart + h.cfg.MemLatency
		arrive = h.MemBus.Transfer(arrive, h.cfg.L2.LineBytes)
		if l2VictimDirty {
			// Dirty L2 victim written back over the same bus.
			h.MemBus.Transfer(arrive, h.cfg.L2.LineBytes)
			_ = l2Victim
		}
		dataAt = arrive
	}
	// L2 -> L1 transfer over the backside bus.
	return h.Backside.Transfer(dataAt, l1.Config().LineBytes)
}

// Load computes the cycle at which the load's data is available, given
// the access begins at `now` (post address-generation). The minimum
// latency is the L1D hit latency (2), making a non-integrating load 3
// cycles including address generation, as in the paper.
func (h *Hierarchy) Load(addr uint64, now uint64) uint64 {
	h.LoadAccesses++
	start := now + h.DTLB.Penalty(addr)
	line := h.L1D.LineAddr(addr)
	hit, victim, victimDirty := h.L1D.Access(addr, false)
	if hit {
		return start + h.cfg.L1D.HitLatency
	}
	if victimDirty {
		h.WriteBuf.Add(start)
		_ = victim
	}
	// Merge onto an outstanding fill when possible.
	if readyAt, ok := h.MSHRs.Lookup(line, start); ok {
		return readyAt
	}
	reqStart := start + h.cfg.L1D.HitLatency // tag check
	fillAt := h.fillFromBelow(h.L1D, addr, reqStart)
	if wait, ok := h.MSHRs.Alloc(line, start, fillAt); !ok {
		// MSHR file full: the request retries when one frees.
		fillAt = wait + (fillAt - reqStart)
		h.MSHRs.Alloc(line, wait, fillAt)
	}
	return fillAt
}

// Store commits a retiring store at `now`, returning the cycle at which
// retirement may proceed (write-buffer admission; the actual cache write
// happens in the background).
func (h *Hierarchy) Store(addr uint64, now uint64) uint64 {
	h.StoreAccesses++
	start := now + h.DTLB.Penalty(addr)
	admitted := h.WriteBuf.Add(start)
	// Background write-allocate: keep the tag state truthful.
	hit, _, victimDirty := h.L1D.Access(addr, true)
	if !hit {
		line := h.L1D.LineAddr(addr)
		if _, ok := h.MSHRs.Lookup(line, admitted); !ok {
			fillAt := h.fillFromBelow(h.L1D, addr, admitted+h.cfg.L1D.HitLatency)
			h.MSHRs.Alloc(line, admitted, fillAt)
		}
	}
	if victimDirty {
		h.WriteBuf.Add(admitted)
	}
	return admitted
}

// IFetch computes the cycle at which the fetch group containing pc is
// available to decode.
func (h *Hierarchy) IFetch(pc uint64, now uint64) uint64 {
	h.IFetches++
	start := now + h.ITLB.Penalty(pc)
	hit, _, _ := h.L1I.Access(pc, false)
	if hit {
		return start + h.cfg.L1I.HitLatency
	}
	line := h.L1I.LineAddr(pc)
	if readyAt, ok := h.MSHRs.Lookup(line, start); ok {
		return readyAt
	}
	reqStart := start + h.cfg.L1I.HitLatency
	fillAt := h.fillFromBelow(h.L1I, pc, reqStart)
	if wait, ok := h.MSHRs.Alloc(line, start, fillAt); !ok {
		fillAt = wait + (fillAt - reqStart)
		h.MSHRs.Alloc(line, wait, fillAt)
	}
	return fillAt
}
