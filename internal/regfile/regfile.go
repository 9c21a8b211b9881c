// Package regfile implements the physical register file and its state
// vector. The state vector is the paper's central extension-1 mechanism:
// true reference counts with a valid bit distinguishing the two
// zero-reference states (0/F "free, garbage" vs 0/T "unused but
// integration-eligible"), plus per-register generation counters that
// suppress register mis-integrations (§2.2).
package regfile

import "fmt"

// PReg names a physical register.
type PReg uint16

// NoReg is the absent-register sentinel.
const NoReg PReg = 0xffff

// Mode selects the register-state discipline.
type Mode uint8

const (
	// ModeSquashOnly is the baseline squash-reuse discipline: only
	// registers unmapped by a squash (with a computed value) are
	// integration-eligible; retirement-shadowed registers become plain
	// free registers.
	ModeSquashOnly Mode = iota
	// ModeGeneral is extension 1: every register holding a useful value is
	// integration-eligible, including actively mapped ones (simultaneous
	// sharing).
	ModeGeneral
)

// ReleaseCause says why a mapping to a register was dissolved.
type ReleaseCause uint8

const (
	// CauseSquash: the mapping was undone by mis-speculation recovery.
	CauseSquash ReleaseCause = iota
	// CauseShadow: the mapping was architecturally overwritten at the
	// retirement of a newer producer of the same logical register.
	CauseShadow
)

// File is the physical register file plus state vector.
type File struct {
	mode    Mode
	genMask uint8

	vals   []uint64
	ready  []bool
	refcnt []uint16
	valid  []bool
	gen    []uint8

	// FIFO reclamation (paper: circular/FIFO register reclamation
	// approximates coordination with LRU IT replacement).
	freeQ  []PReg
	qHead  int
	qTail  int
	qLen   int
	queued []bool

	// freeCount tracks zero-reference registers incrementally so the
	// rename stage's availability pre-check is O(1) instead of a scan of
	// the whole state vector (NumFree was ~20% of simulation time).
	freeCount int

	refMax uint16 // saturation point for reference counters

	// Stats.
	Allocations  uint64
	Integrations uint64
	RefSaturated uint64 // integrations refused due to a saturated counter
}

// Config sizes the file.
type Config struct {
	NumRegs     int
	GenBits     uint // generation counter width; 0 disables (ablation)
	RefBits     uint // reference counter width; 0 means unbounded
	GeneralMode bool
}

// ZeroReg is the physical register permanently holding zero, mapped by the
// architectural zero register.
const ZeroReg PReg = 0

// New builds a register file. Register 0 is pinned as the zero register:
// always ready, value 0, reference count held at 1, never reclaimed.
func New(cfg Config) *File {
	if cfg.NumRegs < 34 {
		panic("regfile: need at least 34 physical registers")
	}
	f := &File{
		vals:   make([]uint64, cfg.NumRegs),
		ready:  make([]bool, cfg.NumRegs),
		refcnt: make([]uint16, cfg.NumRegs),
		valid:  make([]bool, cfg.NumRegs),
		gen:    make([]uint8, cfg.NumRegs),
		freeQ:  make([]PReg, cfg.NumRegs),
		queued: make([]bool, cfg.NumRegs),
	}
	f.Reset(cfg)
	return f
}

// Reset returns the file to the state New(cfg) builds, in place, and
// reports whether it could: cfg must ask for the file's own size.
func (f *File) Reset(cfg Config) bool {
	if cfg.NumRegs != len(f.vals) {
		return false
	}
	clear(f.vals)
	clear(f.ready)
	clear(f.refcnt)
	clear(f.valid)
	clear(f.gen)
	clear(f.freeQ)
	clear(f.queued)
	f.qHead, f.qTail, f.qLen = 0, 0, 0
	f.Allocations, f.Integrations, f.RefSaturated = 0, 0, 0
	f.mode = ModeSquashOnly
	if cfg.GeneralMode {
		f.mode = ModeGeneral
	}
	if cfg.GenBits > 8 {
		cfg.GenBits = 8
	}
	f.genMask = uint8(1<<cfg.GenBits - 1)
	if cfg.RefBits == 0 || cfg.RefBits > 15 {
		f.refMax = 1<<15 - 1
	} else {
		f.refMax = 1<<cfg.RefBits - 1
	}
	f.ready[ZeroReg] = true
	f.valid[ZeroReg] = true
	f.refcnt[ZeroReg] = 1
	for p := 1; p < cfg.NumRegs; p++ {
		f.push(PReg(p))
	}
	f.freeCount = cfg.NumRegs - 1
	return true
}

// NumRegs returns the file size.
func (f *File) NumRegs() int { return len(f.vals) }

// Mode returns the active state discipline.
func (f *File) Mode() Mode { return f.mode }

func (f *File) push(p PReg) {
	if f.queued[p] {
		return
	}
	f.queued[p] = true
	f.freeQ[f.qTail] = p
	f.qTail = (f.qTail + 1) % len(f.freeQ)
	f.qLen++
}

// Alloc claims a free physical register for a new result, bumping its
// generation counter (a reallocation invalidates all stale IT entries that
// name it). ok is false when no register is free.
func (f *File) Alloc() (PReg, bool) {
	for f.qLen > 0 {
		p := f.freeQ[f.qHead]
		f.qHead = (f.qHead + 1) % len(f.freeQ)
		f.qLen--
		f.queued[p] = false
		if f.refcnt[p] != 0 {
			// Stale queue entry: the register was re-shared via
			// integration while waiting for reallocation.
			continue
		}
		f.refcnt[p] = 1
		f.ready[p] = false
		f.valid[p] = true
		f.vals[p] = 0
		f.gen[p] = (f.gen[p] + 1) & f.genMask
		f.freeCount--
		f.Allocations++
		return p, true
	}
	return NoReg, false
}

// Eligible reports whether p may be integrated by a new mapping whose IT
// entry recorded generation g. In squash-only mode, only zero-reference
// valid (squashed) registers qualify; in general mode, any valid register
// qualifies, including in-flight and retired ones.
func (f *File) Eligible(p PReg, g uint8) bool {
	if p == NoReg || int(p) >= len(f.vals) || !f.valid[p] {
		return false
	}
	if f.gen[p]&f.genMask != g&f.genMask {
		return false
	}
	if f.mode == ModeSquashOnly && f.refcnt[p] != 0 {
		return false
	}
	return true
}

// Integrate adds a mapping to p (reference increment). It fails when the
// reference counter is saturated, in which case the caller must allocate a
// fresh register instead (paper §3.3, Refcount discussion).
func (f *File) Integrate(p PReg) bool {
	if f.refcnt[p] >= f.refMax {
		f.RefSaturated++
		return false
	}
	if f.refcnt[p] == 0 && p != ZeroReg {
		f.freeCount--
	}
	f.refcnt[p]++
	f.Integrations++
	return true
}

// Release removes one mapping to p. When the last mapping disappears the
// register enters one of the two zero-reference states: 0/T (valid,
// integration-eligible — it still holds a useful computed value) or 0/F
// (garbage). A squashed un-executed result and — under squash-only mode —
// a shadowed result become 0/F.
func (f *File) Release(p PReg, cause ReleaseCause) {
	if p == ZeroReg || p == NoReg {
		return
	}
	if f.refcnt[p] == 0 {
		panic(fmt.Sprintf("regfile: release of unmapped p%d", p))
	}
	f.refcnt[p]--
	if f.refcnt[p] > 0 {
		return
	}
	f.freeCount++
	switch {
	case !f.ready[p]:
		f.valid[p] = false // squashed before executing: garbage
	case f.mode == ModeSquashOnly && cause == CauseShadow:
		f.valid[p] = false // baseline: architectural overwrite frees outright
	default:
		// keep valid: 0/T, integration-eligible
	}
	f.push(p)
}

// SetReady publishes the computed value of p.
func (f *File) SetReady(p PReg, v uint64) {
	if p == ZeroReg || p == NoReg {
		return
	}
	f.vals[p] = v
	f.ready[p] = true
}

// Ready reports whether p's value has been computed.
func (f *File) Ready(p PReg) bool { return p != NoReg && f.ready[p] }

// Value reads p's value (only meaningful when Ready).
func (f *File) Value(p PReg) uint64 { return f.vals[p] }

// Gen returns p's current generation (masked to the configured width).
func (f *File) Gen(p PReg) uint8 {
	if p == NoReg {
		return 0
	}
	return f.gen[p] & f.genMask
}

// RefCount returns the number of active mappings to p.
func (f *File) RefCount(p PReg) uint16 { return f.refcnt[p] }

// Valid reports p's valid bit.
func (f *File) Valid(p PReg) bool { return p != NoReg && f.valid[p] }

// NumFree reports zero-reference registers (both 0/F and 0/T); they are
// all claimable by Alloc. Maintained incrementally — the rename stage
// consults it for every destination-writing instruction.
func (f *File) NumFree() int { return f.freeCount }

// RefSum sums all reference counts (excluding the pinned zero register);
// tests use it to audit against the set of live mappings.
func (f *File) RefSum() int {
	n := 0
	for p := 1; p < len(f.refcnt); p++ {
		n += int(f.refcnt[p])
	}
	return n
}

// CheckLeaks verifies that exactly the expected number of mappings are
// live. It returns an error naming the first inconsistent register.
func (f *File) CheckLeaks(expected int) error {
	if got := f.RefSum(); got != expected {
		return fmt.Errorf("regfile: %d live mappings, expected %d", got, expected)
	}
	return nil
}
