package memsys

// TLB is a set-associative translation buffer. Misses are handled in
// hardware with a fixed penalty (paper: 30 cycles).
type TLB struct {
	cache       Cache // by value: Penalty reaches the tag array in one step
	missPenalty uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count, associativity and page
// size.
func NewTLB(entries, assoc, pageBytes int, missPenalty uint64) *TLB {
	return &TLB{
		cache: *NewCache(CacheConfig{
			Name: "tlb", SizeBytes: entries * pageBytes,
			LineBytes: pageBytes, Assoc: assoc,
		}),
		missPenalty: missPenalty,
	}
}

// Penalty returns the extra cycles the access at addr pays (0 on a hit).
func (t *TLB) Penalty(addr uint64) uint64 {
	t.Accesses++
	hit, _, _ := t.cache.Access(addr, false)
	if hit {
		return 0
	}
	t.Misses++
	return t.missPenalty
}

// Bus models a shared transfer resource with a width and a cycle
// multiplier (a quarter-frequency bus has clockDiv 4). Transfers reserve
// contiguous slots; utilization is cycle-accounted.
type Bus struct {
	widthBytes int
	clockDiv   uint64
	busyUntil  uint64

	Transfers  uint64
	BusyCycles uint64
}

// NewBus builds a bus.
func NewBus(widthBytes int, clockDiv uint64) *Bus {
	return &Bus{widthBytes: widthBytes, clockDiv: clockDiv}
}

// Reset returns the bus to its just-built state: idle, zero tallies.
func (b *Bus) Reset() {
	b.busyUntil = 0
	b.Transfers, b.BusyCycles = 0, 0
}

// Transfer reserves the bus for `bytes` starting no earlier than `now`,
// returning the completion cycle.
func (b *Bus) Transfer(now uint64, bytes int) uint64 {
	beats := uint64((bytes + b.widthBytes - 1) / b.widthBytes)
	if beats == 0 {
		beats = 1
	}
	dur := beats * b.clockDiv
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + dur
	b.Transfers++
	b.BusyCycles += dur
	return b.busyUntil
}

// MSHRFile tracks outstanding line misses, merging secondary misses onto
// the in-flight fill.
type MSHRFile struct {
	lines []mshr

	Allocs  uint64
	Merges  uint64
	FullNow uint64 // times an access found the file full
}

type mshr struct {
	line    uint64
	readyAt uint64
	valid   bool
}

// NewMSHRFile builds a file with n entries.
func NewMSHRFile(n int) *MSHRFile {
	return &MSHRFile{lines: make([]mshr, n)}
}

// Reset returns the file to its just-built state: no outstanding fills,
// zero tallies.
func (m *MSHRFile) Reset() {
	for i := range m.lines {
		m.lines[i] = mshr{}
	}
	m.Allocs, m.Merges, m.FullNow = 0, 0, 0
}

// Lookup finds an outstanding fill of line at `now`; ok is false when no
// fill is in flight.
func (m *MSHRFile) Lookup(line uint64, now uint64) (readyAt uint64, ok bool) {
	for i := range m.lines {
		e := &m.lines[i]
		if e.valid && e.readyAt <= now {
			e.valid = false // retire completed fills lazily
			continue
		}
		if e.valid && e.line == line {
			m.Merges++
			return e.readyAt, true
		}
	}
	return 0, false
}

// Alloc reserves an MSHR for a new fill completing at readyAt. When the
// file is full, it returns the earliest cycle at which an entry frees;
// the caller retries from there (modelled as added latency).
func (m *MSHRFile) Alloc(line uint64, now, readyAt uint64) (waitUntil uint64, ok bool) {
	var earliest uint64 = ^uint64(0)
	for i := range m.lines {
		e := &m.lines[i]
		if !e.valid || e.readyAt <= now {
			*e = mshr{line: line, readyAt: readyAt, valid: true}
			m.Allocs++
			return 0, true
		}
		if e.readyAt < earliest {
			earliest = e.readyAt
		}
	}
	m.FullNow++
	return earliest, false
}

// WriteBuffer absorbs retirement stores so that retire does not stall on
// the data cache; entries drain in FIFO order at the L1 write port rate.
type WriteBuffer struct {
	entries   int
	drainAt   []uint64 // completion cycles of buffered stores (ring)
	head, len int
	drainCost uint64
	lastDrain uint64

	Stores     uint64
	FullStalls uint64
}

// NewWriteBuffer builds an n-entry buffer; drainCost is the cycles each
// entry occupies the L1 write port.
func NewWriteBuffer(n int, drainCost uint64) *WriteBuffer {
	return &WriteBuffer{entries: n, drainAt: make([]uint64, n), drainCost: drainCost}
}

// Reset returns the buffer to its just-built state: empty, zero
// tallies. Stale completion cycles in the ring are unreadable once
// head and len reset, so they are not cleared.
func (w *WriteBuffer) Reset() {
	w.head, w.len = 0, 0
	w.lastDrain = 0
	w.Stores, w.FullStalls = 0, 0
}

// Add buffers a store at `now`, returning the cycle at which retire may
// proceed (== now unless the buffer is full).
func (w *WriteBuffer) Add(now uint64) uint64 {
	// Lazily drain completed entries.
	for w.len > 0 && w.drainAt[w.head] <= now {
		w.head = (w.head + 1) % w.entries
		w.len--
	}
	stallUntil := now
	if w.len == w.entries {
		// Full: wait for the oldest entry.
		stallUntil = w.drainAt[w.head]
		w.head = (w.head + 1) % w.entries
		w.len--
		w.FullStalls++
	}
	start := stallUntil
	if w.lastDrain > start {
		start = w.lastDrain
	}
	done := start + w.drainCost
	w.lastDrain = done
	w.drainAt[(w.head+w.len)%w.entries] = done
	w.len++
	w.Stores++
	return stallUntil
}
