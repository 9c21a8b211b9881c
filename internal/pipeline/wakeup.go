package pipeline

import (
	"math/bits"

	"rix/internal/isa"
	"rix/internal/regfile"
)

// wakeup is the issue stage's event-driven select state: fixed-size
// bitmasks over reservation-station slots, words 64-bit words each. A
// slot enters ready when its last unready source is published
// (setReady), so issueStage walks only the ready slots instead of
// rescanning every station's sources each cycle.
type wakeup struct {
	words   int
	busy    []uint64 // occupied slots; the free mask is its complement
	ready   []uint64 // occupied slots whose register sources all have values
	wait    []uint64 // wait[p*words:(p+1)*words]: slots waiting on register p
	pending []uint8  // per slot: distinct sources still unready (0 when free)
}

func rsWords(numRS int) int { return (numRS + 63) / 64 }

func newWakeup(numRS, physRegs int) wakeup {
	words := rsWords(numRS)
	return wakeup{
		words:   words,
		busy:    make([]uint64, words),
		ready:   make([]uint64, words),
		wait:    make([]uint64, physRegs*words),
		pending: make([]uint8, numRS),
	}
}

// fits reports whether recycled wakeup state matches the sizing.
func (w *wakeup) fits(numRS, physRegs int) bool {
	words := rsWords(numRS)
	return w.words == words && len(w.busy) == words && len(w.ready) == words &&
		len(w.wait) == physRegs*words && len(w.pending) == numRS
}

// slotBit locates RS slot i in a mask.
func slotBit(i int) (int, uint64) { return i >> 6, 1 << uint(i&63) }

func isCMOV(op isa.Opcode) bool { return op == isa.CMOVEQ || op == isa.CMOVNE }

// allocRS places a uop in the lowest free reservation station — the slot
// a first-free scan picks — and registers it in the wait mask of each
// distinct unready source, or in the ready mask when it has none.
//
//rix:hotpath
func (pl *Pipeline) allocRS(u *uop) {
	w := &pl.wake
	for k, b := range w.busy {
		if ^b == 0 {
			continue
		}
		i := k*64 + bits.TrailingZeros64(^b)
		if i >= len(pl.rs) {
			break
		}
		bit := uint64(1) << uint(i&63)
		w.busy[k] |= bit
		pl.rs[i] = u
		u.rsIdx = i
		u.prio = priorityOf(u)
		pl.rsUsed++
		if u.in.Op.ReadsRa() {
			pl.waitOn(i, u.src1.P)
		}
		if u.in.Op.ReadsRb() {
			pl.waitOn(i, u.src2.P)
		}
		if isCMOV(u.in.Op) {
			pl.waitOn(i, u.oldDest.P)
		}
		if w.pending[i] == 0 {
			w.ready[k] |= bit
		}
		return
	}
	panic("pipeline: RS allocation failed after pre-check")
}

// waitOn registers slot i as a waiter on p unless p already has its value.
func (pl *Pipeline) waitOn(i int, p regfile.PReg) {
	if pl.ready(p) {
		return
	}
	w := &pl.wake
	k, bit := slotBit(i)
	word := &w.wait[int(p)*w.words+k]
	if *word&bit == 0 {
		*word |= bit
		w.pending[i]++
	}
}

// setReady publishes p's value and wakes its waiters: every slot in p's
// wait mask loses one pending source, and those left with none enter the
// ready mask. Every register-file readiness change in flight goes
// through here.
//
//rix:hotpath
func (pl *Pipeline) setReady(p regfile.PReg, v uint64) {
	pl.rf.SetReady(p, v)
	if p == regfile.ZeroReg || p == regfile.NoReg {
		return
	}
	w := &pl.wake
	waiters := w.wait[int(p)*w.words : int(p)*w.words+w.words]
	for k, b := range waiters {
		if b == 0 {
			continue
		}
		waiters[k] = 0
		for ; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			i := k*64 + j
			w.pending[i]--
			if w.pending[i] == 0 {
				w.ready[k] |= 1 << uint(j)
			}
		}
	}
}

// unwaitRS withdraws a squashed uop's slot from the wait masks of its
// still-unready sources, then frees the slot.
//
//rix:hotpath
func (pl *Pipeline) unwaitRS(u *uop) {
	i := u.rsIdx
	w := &pl.wake
	if w.pending[i] != 0 {
		k, bit := slotBit(i)
		if u.in.Op.ReadsRa() {
			w.wait[int(u.src1.P)*w.words+k] &^= bit
		}
		if u.in.Op.ReadsRb() {
			w.wait[int(u.src2.P)*w.words+k] &^= bit
		}
		if isCMOV(u.in.Op) {
			w.wait[int(u.oldDest.P)*w.words+k] &^= bit
		}
		w.pending[i] = 0
	}
	pl.freeRS(u)
}

// freeRS releases u's reservation station.
func (pl *Pipeline) freeRS(u *uop) {
	k, bit := slotBit(u.rsIdx)
	pl.wake.busy[k] &^= bit
	pl.wake.ready[k] &^= bit
	pl.rs[u.rsIdx] = nil
	u.rsIdx = -1
	pl.rsUsed--
}
