package pipeline

import (
	"fmt"

	"rix/internal/emu"
)

// traceWindow is the pipeline's bounded view of the golden trace: a ring
// of records covering [base, base+n) trace indices, filled on demand from
// a TraceSource and released as instructions retire. Live indices span at
// most the in-flight window (ROB + fetch queue), so steady-state memory
// is O(ROB) regardless of trace length. The ring grows (doubling) only if
// a consumer outruns the sizing hint — a safety valve, not a steady state.
// Its capacity is a power of two, so ring positions are masked rather
// than divided.
type traceWindow struct {
	src  emu.TraceSource
	buf  []emu.TraceRec // ring storage; len is a power of two
	base int            // trace index of buf[head]
	head int
	n    int
	done bool // source exhausted (cleanly or with error)
	peak int  // high-water occupancy, exported via Stats.TraceWindowPeak
}

// init binds the window to a source, rounding capHint up to a power of
// two. A recycled ring buffer (Scratch) of that size is adopted instead
// of allocating; ring capacity never affects behavior (grow is a safety
// valve, and peak tracks occupancy, not size).
func (w *traceWindow) init(src emu.TraceSource, capHint int, buf []emu.TraceRec) {
	size := 16
	for size < capHint {
		size *= 2
	}
	w.src = src
	if len(buf) >= size && len(buf)&(len(buf)-1) == 0 {
		w.buf = buf
	} else {
		w.buf = make([]emu.TraceRec, size)
	}
}

// pos maps a ring offset from head to its storage index.
func (w *traceWindow) pos(off int) int { return (w.head + off) & (len(w.buf) - 1) }

// has reports whether trace record i exists, pulling from the source as
// needed. Indices below the release point are gone by contract.
func (w *traceWindow) has(i int) bool {
	if i < w.base {
		panic(fmt.Sprintf("pipeline: trace index %d below window base %d", i, w.base))
	}
	for w.base+w.n <= i {
		if w.done {
			return false
		}
		rec, ok := w.src.Next()
		if !ok {
			w.done = true
			return false
		}
		w.push(rec)
	}
	return true
}

// at returns trace record i, which must be in the live window (or still
// producible from the source).
func (w *traceWindow) at(i int) emu.TraceRec {
	if !w.has(i) {
		panic(fmt.Sprintf("pipeline: trace index %d beyond end of stream", i))
	}
	return w.buf[w.pos(i-w.base)]
}

func (w *traceWindow) push(rec emu.TraceRec) {
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[w.pos(w.n)] = rec
	w.n++
	if w.n > w.peak {
		w.peak = w.n
	}
}

func (w *traceWindow) grow() {
	nb := make([]emu.TraceRec, 2*len(w.buf))
	for i := 0; i < w.n; i++ {
		nb[i] = w.buf[w.pos(i)]
	}
	w.buf, w.head = nb, 0
}

// release drops records below trace index lo; the pipeline calls it as
// retirement advances, keeping the window at O(in-flight).
func (w *traceWindow) release(lo int) {
	d := lo - w.base
	if d <= 0 {
		return
	}
	if d > w.n {
		d = w.n
	}
	w.head = w.pos(d)
	w.base += d
	w.n -= d
}

// err surfaces a source production failure after the stream ends.
func (w *traceWindow) err() error { return w.src.Err() }
