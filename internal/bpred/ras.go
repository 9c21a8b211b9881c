package bpred

// RAS is the return-address stack. Beyond predicting return targets, its
// top-of-stack index is the dynamic call depth that extension 2 mixes
// into the integration table index (paper §2.3: "the top-of-stack index
// of the return-address-stack ... results in a good distribution").
//
// Squash repair uses full shadow copies (as in 21264-class fetch units
// and the simulators of this era): each snapshot captures the whole
// stack, created lazily and shared until the next push/pop, so the cost
// is one copy per call/return fetched rather than per instruction.
//
// Shadows are reference-counted and recycled: Release hands a dead
// snapshot's shadow back, and Snapshot refills from that pool before
// allocating. A pipeline releases every snapshot its in-flight
// instructions held, so the pool is bounded by the in-flight window and
// steady-state snapshotting allocates nothing.
type RAS struct {
	stack []uint64
	tos   int // number of live entries (also the call depth)
	depth int // unclamped call depth (can exceed stack size)

	snap *rasShadow   // current shared shadow copy; nil when stale
	free []*rasShadow // shadows no live snapshot refers to
}

type rasShadow struct {
	stack []uint64
	tos   int
	depth int
	refs  int // live snapshots sharing this shadow
}

// RASSnap is the per-instruction checkpoint restored on squashes. The
// shadow is immutable and shared between all instructions fetched between
// two stack mutations.
type RASSnap struct {
	shadow *rasShadow
}

// Tos returns the checkpointed top-of-stack index.
func (s RASSnap) Tos() int {
	if s.shadow == nil {
		return 0
	}
	return s.shadow.tos
}

// Depth returns the checkpointed call depth.
func (s RASSnap) Depth() int {
	if s.shadow == nil {
		return 0
	}
	return s.shadow.depth
}

// NewRAS builds a stack with n entries.
func NewRAS(n int) *RAS {
	return &RAS{stack: make([]uint64, n)}
}

// Depth returns the current dynamic call depth (never negative; not
// clamped by the stack capacity).
func (r *RAS) Depth() int { return r.depth }

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.dropSnap()
	if r.tos < len(r.stack) {
		r.stack[r.tos] = addr
		r.tos++
	} else {
		// Overflow: overwrite the top; deep recursion loses old entries.
		r.stack[len(r.stack)-1] = addr
	}
	r.depth++
}

// Pop predicts a return target.
func (r *RAS) Pop() (uint64, bool) {
	r.dropSnap()
	if r.depth > 0 {
		r.depth--
	}
	if r.tos == 0 {
		return 0, false
	}
	r.tos--
	return r.stack[r.tos], true
}

// Snapshot captures the full state for squash repair. Snapshots taken
// between two stack mutations share one shadow copy, drawn from the
// recycled pool when it has one.
func (r *RAS) Snapshot() RASSnap {
	if r.snap == nil {
		var sh *rasShadow
		if n := len(r.free); n > 0 {
			sh = r.free[n-1]
			r.free = r.free[:n-1]
		} else {
			sh = &rasShadow{stack: make([]uint64, len(r.stack))} //rix:alloc-ok — pool refill, bounded by the in-flight window
		}
		copy(sh.stack, r.stack)
		sh.tos, sh.depth = r.tos, r.depth
		r.snap = sh
	}
	r.snap.refs++
	return RASSnap{shadow: r.snap}
}

// Release declares a snapshot dead. Once no live snapshot shares its
// shadow, the shadow returns to the pool; its contents stay intact until
// the next Snapshot reuses it, so a snapshot may still be restored after
// its release as long as no Snapshot intervenes. Releasing the zero
// RASSnap is a no-op; snapshots never released are simply not recycled.
func (r *RAS) Release(s RASSnap) {
	sh := s.shadow
	if sh == nil {
		return
	}
	sh.refs--
	if sh.refs == 0 && sh != r.snap {
		r.free = append(r.free, sh)
	}
}

// dropSnap retires the current shared shadow after a stack mutation,
// recycling it if no live snapshot holds it.
func (r *RAS) dropSnap() {
	if sh := r.snap; sh != nil {
		r.snap = nil
		if sh.refs == 0 {
			r.free = append(r.free, sh)
		}
	}
}

// Restore rewinds to a snapshot (exact: full shadow copy-back).
func (r *RAS) Restore(s RASSnap) {
	if s.shadow == nil {
		r.tos, r.depth = 0, 0
		return
	}
	copy(r.stack, s.shadow.stack)
	r.tos = s.shadow.tos
	r.depth = s.shadow.depth
	r.dropSnap()
}
