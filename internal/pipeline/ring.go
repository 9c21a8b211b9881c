package pipeline

// ring is a fixed-capacity queue of in-flight uops in program order:
// the ROB, the LSQ and the fetch queue are each one. Entries are
// addressed by age (at(0) is the oldest); push also returns the entry's
// storage index, which stays put until the entry leaves and which pos
// turns back into an age.
type ring struct {
	buf     []*uop
	head, n int
}

func newRing(size int) ring { return ring{buf: make([]*uop, size)} }

func (r *ring) len() int   { return r.n }
func (r *ring) full() bool { return r.n >= len(r.buf) }

// at returns the i-th oldest entry.
//
//rix:hotpath
func (r *ring) at(i int) *uop { return r.buf[wrap(r.head+i, len(r.buf))] }

// push appends u as the youngest entry and returns its storage index;
// callers check full first.
//
//rix:hotpath
func (r *ring) push(u *uop) int {
	p := wrap(r.head+r.n, len(r.buf))
	r.buf[p] = u
	r.n++
	return p
}

// popHead removes and returns the oldest entry.
//
//rix:hotpath
func (r *ring) popHead() *uop {
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = wrap(r.head+1, len(r.buf))
	r.n--
	return u
}

// popTail removes and returns the youngest entry.
//
//rix:hotpath
func (r *ring) popTail() *uop {
	p := wrap(r.head+r.n-1, len(r.buf))
	u := r.buf[p]
	r.buf[p] = nil
	r.n--
	return u
}

// pos returns the age of the entry at storage index p.
//
//rix:hotpath
func (r *ring) pos(p int) int {
	if p -= r.head; p < 0 {
		p += len(r.buf)
	}
	return p
}

// reset empties the ring, clearing every slot.
func (r *ring) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// wrap reduces a ring index in [0, 2n) to [0, n) without a division:
// exact for any ring size, where a mask would need a power of two.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}
