package emu

// Memory is a sparse, paged, little-endian 64-bit address space. Reads of
// unmapped memory return zero without allocating; writes allocate pages on
// demand. It serves as both the functional emulator's memory and the
// pipeline's architectural memory image.
//
// Snapshots are copy-on-write: State shares the resident page arrays
// with the new snapshot instead of duplicating them, and the first write
// to a shared page afterwards clones just that page. Sharing is tracked
// per page with an epoch counter — a page is privately writable only
// when its epoch matches the memory's current epoch, and every snapshot
// bumps the epoch, instantly demoting all pages to shared. Shared page
// arrays are never written again by any owner, so a snapshot handed to
// another goroutine is race-free without locks.
//
// One-entry read and write caches short-circuit the map lookups on the
// common same-page access streak (stack traffic, sequential buffers);
// both are derived state and never serialized. The write cache
// additionally certifies that its page is already private in the current
// epoch, keeping the copy-on-write check off the hot write path.
type Memory struct {
	pages   map[uint64]*page
	epochs  map[uint64]uint64 // page number → epoch at which it became private
	epoch   uint64
	lastPN  uint64
	last    *page
	lastWPN uint64
	lastW   *page
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{
		pages:  make(map[uint64]*page),
		epochs: make(map[uint64]uint64),
	}
}

// LoadImage copies a byte image to base.
func (m *Memory) LoadImage(base uint64, img []byte) {
	for i, b := range img {
		m.Write8(base+uint64(i), b)
	}
}

// lookup returns the page holding addr, or nil when unmapped. The page
// may be shared with snapshots; callers must not write through it.
func (m *Memory) lookup(pn uint64) *page {
	if m.last != nil && m.lastPN == pn {
		return m.last
	}
	p := m.pages[pn]
	if p != nil {
		m.lastPN, m.last = pn, p
	}
	return p
}

// ensureWritable returns a privately owned page for pn, allocating an
// empty one if unmapped and cloning a shared one on first write after a
// snapshot. Both caches are pointed at the (possibly new) private page so
// the streak path never re-checks the epoch.
func (m *Memory) ensureWritable(pn uint64) *page {
	if m.lastW != nil && m.lastWPN == pn {
		return m.lastW
	}
	p := m.pages[pn]
	switch {
	case p == nil:
		p = new(page)
		m.pages[pn] = p
		m.epochs[pn] = m.epoch
	case m.epochs[pn] != m.epoch:
		np := new(page)
		*np = *p
		m.pages[pn] = np
		m.epochs[pn] = m.epoch
		p = np
	}
	m.lastPN, m.last = pn, p
	m.lastWPN, m.lastW = pn, p
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint64) byte {
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 writes one byte, allocating the page if needed.
func (m *Memory) Write8(addr uint64, v byte) {
	m.ensureWritable(addr >> pageShift)[addr&pageMask] = v
}

// Read64 reads a little-endian 64-bit word (no alignment requirement; the
// fast path handles the aligned, single-page case).
func (m *Memory) Read64(addr uint64) uint64 {
	if addr&7 == 0 {
		if p := m.lookup(addr >> pageShift); p != nil {
			off := addr & pageMask
			b := p[off : off+8 : off+8]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		}
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.Read8(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write64 writes a little-endian 64-bit word.
func (m *Memory) Write64(addr uint64, v uint64) {
	if addr&7 == 0 {
		p := m.ensureWritable(addr >> pageShift)
		off := addr & pageMask
		b := p[off : off+8 : off+8]
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		return
	}
	for i := 0; i < 8; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Read32 reads a little-endian 32-bit word, sign-extended to 64 bits
// (LDL semantics).
func (m *Memory) Read32(addr uint64) uint64 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(m.Read8(addr+uint64(i))) << (8 * i)
	}
	return uint64(int64(int32(v)))
}

// Write32 writes the low 32 bits of v.
func (m *Memory) Write32(addr uint64, v uint64) {
	for i := 0; i < 4; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// PageCount reports the number of resident pages (for leak checks in
// tests).
func (m *Memory) PageCount() int { return len(m.pages) }
