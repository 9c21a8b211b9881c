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

	ctx  context.Context // nil = never cancelled
	done <-chan struct{}
}

// streamPollInterval is the record cadence of the batched cancellation
// check in Next (a power of two: one masked compare per record, one
// non-blocking channel read per interval). At emulator speed the bound
// is well under a millisecond.
const streamPollInterval = 1 << 12

// SetContext arms cancellation: production polls ctx every
// streamPollInterval records, and a cancelled stream ends with
// Err() == ctx.Err().
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
	return rec, true
}

// Err reports why the stream ended, if it ended abnormally.
func (s *Streamer) Err() error { return s.err }

// Emulator returns the backing emulator, exposing final architectural
// state (ExitCode, Output, Count) once the stream is drained.
func (s *Streamer) Emulator() *Emulator { return s.e }

// ResumeStream mints a TraceSource that continues execution from a
// checkpointed emulator state: its first record is dynamic instruction
// st.Count. maxInstrs bounds the absolute retired count, exactly as for
// Stream.
func ResumeStream(p *prog.Program, st State, maxInstrs uint64) (*Streamer, error) {
	e, err := NewFromState(p, st)
	if err != nil {
		return nil, err
	}
	return &Streamer{p: p, maxInstrs: maxInstrs, e: e}, nil
}

// sliceSource adapts a materialized trace to the TraceSource interface.
type sliceSource struct {
	recs []TraceRec
	pos  int
}

// FromSlice returns a TraceSource over an in-memory trace; Err is always
// nil.
func FromSlice(recs []TraceRec) TraceSource { return &sliceSource{recs: recs} }

func (s *sliceSource) Next() (TraceRec, bool) {
	if s.pos >= len(s.recs) {
		return TraceRec{}, false
	}
	rec := s.recs[s.pos]
	s.pos++
	return rec, true
}

func (s *sliceSource) Err() error { return nil }

// limitSource truncates a source after n records, ending the stream
// cleanly (Err is nil for a truncation; underlying production errors
// still surface).
type limitSource struct {
	src  TraceSource
	left uint64
	cut  bool // true when we truncated before the source ended
}

// Limit returns a view of src ending after at most n records — the
// windowing adapter for sampled simulation: a pipeline consuming a
// limited source halts after the window retires.
func Limit(src TraceSource, n uint64) TraceSource {
	return &limitSource{src: src, left: n}
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

// Materialize drains a source into a slice. It is the adapter for tests
// and for small traces where random access is worth the memory.
func Materialize(src TraceSource) ([]TraceRec, error) {
	var recs []TraceRec
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
