package emu

import (
	"context"
	"fmt"

	"rix/internal/prog"
)

// TraceSource streams golden-trace records one at a time. It is the
// producer half of the simulator's producer/consumer decomposition: the
// emulator (or any recorded trace) produces records incrementally and the
// pipeline consumes them with O(ROB) buffering, so trace length no longer
// bounds resident memory.
//
// A source is single-consumer and not safe for concurrent use; consumers
// that need independent cursors over the same workload should each mint
// their own source (see workload.Built.Source).
type TraceSource interface {
	// Next returns the next record in program order. ok is false when the
	// stream is exhausted — either because the traced program halted
	// cleanly or because production failed; Err distinguishes the two.
	Next() (TraceRec, bool)

	// Err returns the terminal production error, or nil after a clean end
	// of stream. It is meaningful only once Next has returned ok=false.
	Err() error

	// Rewind resets the source to the beginning of the stream so a single
	// build can feed multiple sequential pipeline configurations. For
	// emulator-backed sources this re-executes the program.
	Rewind() error

	// SizeHint returns the expected total number of records, or 0 when
	// unknown. Materialize uses it to pre-size; consumers must not rely
	// on it for correctness.
	SizeHint() int
}

// Streamer is the emulator-backed TraceSource: it executes the program
// incrementally, producing one TraceRec per retired instruction without
// materializing the trace. After the stream ends, Emulator exposes the
// final architectural state (exit code, program output).
type Streamer struct {
	p         *prog.Program
	maxInstrs uint64
	e         *Emulator
	err       error
	hint      int
	resume    State // Rewind target of a resumed stream
	resumed   bool

	ctx  context.Context // nil = never cancelled
	done <-chan struct{}
}

// streamPollInterval is the record cadence of the batched cancellation
// check in Next and Seek (a power of two: one masked compare per record,
// one non-blocking channel read per interval). At emulator speed the
// bound is well under a millisecond.
const streamPollInterval = 1 << 12

// SetContext arms cancellation: production polls ctx every
// streamPollInterval records, and a cancelled stream ends with
// Err() == ctx.Err(). Rewind keeps the binding.
func (s *Streamer) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.done = ctx.Done()
}

// cancelled runs the batched poll; it reports (and records) the
// context's error once the stream position crosses a poll boundary
// after cancellation.
func (s *Streamer) cancelled() bool {
	if s.done == nil || s.e.Count&(streamPollInterval-1) != 0 {
		return false
	}
	select {
	case <-s.done:
		s.err = s.ctx.Err()
		return true
	default:
		return false
	}
}

// Stream returns a TraceSource that executes p incrementally, failing the
// stream if the program does not halt within maxInstrs instructions.
func Stream(p *prog.Program, maxInstrs uint64) *Streamer {
	return &Streamer{p: p, maxInstrs: maxInstrs, e: New(p)}
}

// SetSizeHint records the known dynamic instruction count (e.g. from a
// prior validation pass) so SizeHint is accurate before the first pass
// completes.
func (s *Streamer) SetSizeHint(n int) {
	if n > s.hint {
		s.hint = n
	}
}

// Next executes one instruction and returns its trace record.
//
//rix:hotpath
func (s *Streamer) Next() (TraceRec, bool) {
	if s.err != nil || s.e.Halted {
		return TraceRec{}, false
	}
	if s.cancelled() {
		return TraceRec{}, false
	}
	if s.e.Count >= s.maxInstrs {
		s.err = fmt.Errorf("emu: %s did not halt within %d instructions", s.p.Name, s.maxInstrs) //rix:alloc-ok — terminal error path
		return TraceRec{}, false
	}
	rec, err := s.e.Step()
	if err != nil {
		s.err = err
		return TraceRec{}, false
	}
	if s.e.Halted && int(s.e.Count) > s.hint {
		s.hint = int(s.e.Count)
	}
	return rec, true
}

// Err reports why the stream ended, if it ended abnormally.
func (s *Streamer) Err() error { return s.err }

// Rewind restarts execution from the stream origin: the program entry
// point, or the checkpoint for resumed streams. The size hint learned
// from a completed pass is preserved.
func (s *Streamer) Rewind() error {
	if s.resumed {
		e, err := NewFromState(s.p, s.resume)
		if err != nil {
			return err
		}
		s.e = e
	} else {
		s.e = New(s.p)
	}
	s.err = nil
	return nil
}

// SizeHint returns the dynamic instruction count once known (after a
// complete pass or SetSizeHint), else 0.
func (s *Streamer) SizeHint() int { return s.hint }

// Emulator returns the backing emulator, exposing final architectural
// state (ExitCode, Output, Count) once the stream is drained.
func (s *Streamer) Emulator() *Emulator { return s.e }

// Checkpoint captures the emulator state at the current stream position
// (deep copy; streaming may continue afterwards). Restoring it with
// ResumeStream yields a source producing exactly the remaining records.
func (s *Streamer) Checkpoint() State { return s.e.State() }

// ResumeStream mints a TraceSource that continues execution from a
// checkpointed emulator state: its first record is dynamic instruction
// st.Count. maxInstrs bounds the absolute retired count, exactly as for
// Stream. Rewind on a resumed stream returns to the checkpoint, not the
// program entry.
func ResumeStream(p *prog.Program, st State, maxInstrs uint64) (*Streamer, error) {
	e, err := NewFromState(p, st)
	if err != nil {
		return nil, err
	}
	return &Streamer{p: p, maxInstrs: maxInstrs, e: e, resume: st, resumed: true}, nil
}

// Seek positions the stream so the next record is dynamic instruction n,
// fast-forwarding (or rewinding, then fast-forwarding) by architectural
// execution. Seeking before a resumed stream's checkpoint, or past the
// end of the program, fails.
func (s *Streamer) Seek(n uint64) error {
	if n < s.e.Count {
		if err := s.Rewind(); err != nil {
			return err
		}
	}
	if n < s.e.Count {
		return fmt.Errorf("emu: seek to %d before stream origin %d", n, s.e.Count)
	}
	for s.e.Count < n {
		if s.e.Halted {
			return fmt.Errorf("emu: seek to %d past program end at %d", n, s.e.Count)
		}
		if s.cancelled() {
			return s.err
		}
		if s.e.Count >= s.maxInstrs {
			return fmt.Errorf("emu: %s did not halt within %d instructions", s.p.Name, s.maxInstrs)
		}
		if _, err := s.e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// sliceSource adapts a materialized trace to the TraceSource interface.
type sliceSource struct {
	recs []TraceRec
	pos  int
}

// FromSlice returns a TraceSource over an in-memory trace. Rewind resets
// the cursor; Err is always nil.
func FromSlice(recs []TraceRec) TraceSource { return &sliceSource{recs: recs} }

func (s *sliceSource) Next() (TraceRec, bool) {
	if s.pos >= len(s.recs) {
		return TraceRec{}, false
	}
	rec := s.recs[s.pos]
	s.pos++
	return rec, true
}

func (s *sliceSource) Err() error    { return nil }
func (s *sliceSource) Rewind() error { s.pos = 0; return nil }
func (s *sliceSource) SizeHint() int { return len(s.recs) }

// Seek positions the cursor at record n.
func (s *sliceSource) Seek(n uint64) error {
	if n > uint64(len(s.recs)) {
		return fmt.Errorf("emu: seek to %d past end of %d-record trace", n, len(s.recs))
	}
	s.pos = int(n)
	return nil
}

// Seeker is the optional fast-positioning extension of TraceSource:
// sources that can jump to dynamic instruction n (Seek) and report the
// index of the next record they would produce (Pos) without the
// consumer draining records one by one. Streamer (architectural
// fast-forward) and slice sources (cursor move) implement it; Skip uses
// it when present and falls back to draining otherwise.
type Seeker interface {
	Seek(n uint64) error
	Pos() uint64
}

// Skip advances src by n records: via Seek when the source supports it,
// else by draining. It fails if the stream ends first.
func Skip(src TraceSource, n uint64) error {
	if n == 0 {
		return nil
	}
	if sk, ok := src.(Seeker); ok {
		return sk.Seek(sk.Pos() + n)
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := src.Next(); !ok {
			if err := src.Err(); err != nil {
				return err
			}
			return fmt.Errorf("emu: skip of %d records hit end of stream at %d", n, i)
		}
	}
	return nil
}

// Pos reports the dynamic instruction index of the next record.
func (s *Streamer) Pos() uint64 { return s.e.Count }

// Pos reports the cursor position.
func (s *sliceSource) Pos() uint64 { return uint64(s.pos) }

// limitSource truncates a source after n records, ending the stream
// cleanly (Err is nil for a truncation; underlying production errors
// still surface).
type limitSource struct {
	src  TraceSource
	n    uint64 // total budget, for Rewind
	left uint64
	cut  bool // true when we truncated before the source ended
}

// Limit returns a view of src ending after at most n records — the
// windowing adapter for sampled simulation: a pipeline consuming a
// limited source halts after the window retires.
func Limit(src TraceSource, n uint64) TraceSource {
	return &limitSource{src: src, n: n, left: n}
}

func (l *limitSource) Next() (TraceRec, bool) {
	if l.left == 0 {
		l.cut = true
		return TraceRec{}, false
	}
	rec, ok := l.src.Next()
	if !ok {
		return TraceRec{}, false
	}
	l.left--
	return rec, true
}

func (l *limitSource) Err() error {
	if l.cut {
		return nil
	}
	return l.src.Err()
}

func (l *limitSource) Rewind() error {
	if err := l.src.Rewind(); err != nil {
		return err
	}
	l.left, l.cut = l.n, false
	return nil
}

func (l *limitSource) SizeHint() int {
	h := l.src.SizeHint()
	if h == 0 || uint64(h) > l.n {
		h = int(l.n)
	}
	return h
}

// Materialize drains a source into a slice, pre-sized from the source's
// hint. It is the adapter for tests and for small traces where random
// access is worth the memory.
func Materialize(src TraceSource) ([]TraceRec, error) {
	capHint := src.SizeHint()
	if capHint <= 0 {
		capHint = 1 << 10
	}
	recs := make([]TraceRec, 0, capHint)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
