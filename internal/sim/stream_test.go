package sim

import (
	"context"
	"reflect"
	"testing"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/workload"
)

// countingSource wraps a TraceSource and records how records were
// consumed: total pulls and the maximum pulled ahead of a low-water mark
// advanced by the window release (observed through pull ordering).
type countingSource struct {
	inner emu.TraceSource
	pulls int
}

func (c *countingSource) Next() (emu.TraceRec, bool) {
	rec, ok := c.inner.Next()
	if ok {
		c.pulls++
	}
	return rec, ok
}
func (c *countingSource) Err() error { return c.inner.Err() }

// TestStreamingMatchesMaterialized is the trace-source equivalence
// property: for every integration preset, a pipeline fed by the
// incremental emulator stream must produce Stats identical to one fed by
// the fully materialized trace.
func TestStreamingMatchesMaterialized(t *testing.T) {
	b := workload.Synth(workload.SynthParams{
		Seed: 17, Iters: 400, BodyOps: 10, CallEvery: 3,
		MemFrac: 0.3, BranchFrac: 0.2, Invariants: 2,
	})
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := bw.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	presets := append([]string{IntNone}, IntegrationPresets()...)
	for _, preset := range presets {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			o := Options{Integration: preset}
			streamed := runDetail(t, bw.Prog, bw.Source(), o)
			materialized := runDetail(t, bw.Prog, emu.FromSlice(trace), o)
			if !reflect.DeepEqual(streamed, materialized) {
				t.Errorf("stats diverge between streaming and materialized sources:\nstream: %+v\nslice:  %+v",
					streamed, materialized)
			}
		})
	}
}

// TestStreamConsumedIncrementally asserts bounded buffering: the pipeline
// must not slurp the trace. Two checks — the window high-water mark stays
// within the in-flight bound (ROB + fetch queue + slack), far below the
// trace length; and the source is never pulled past what fetch could have
// seen (pulls == retired + a residual smaller than the window bound).
func TestStreamConsumedIncrementally(t *testing.T) {
	b := workload.Synth(workload.SynthParams{
		Seed: 29, Iters: 600, BodyOps: 12, CallEvery: 4, MemFrac: 0.25, BranchFrac: 0.2,
	})
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSource{inner: bw.Source()}
	cfg, err := Options{Integration: IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.New(cfg, bw.Prog, cs).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bound := uint64(cfg.ROBSize + cfg.FetchQueue + 8)
	if st.TraceWindowPeak == 0 || st.TraceWindowPeak > bound {
		t.Errorf("trace window peak %d outside (0, %d]", st.TraceWindowPeak, bound)
	}
	if uint64(bw.DynLen) <= 4*bound {
		t.Fatalf("workload too short (%d) to distinguish streaming from slurping", bw.DynLen)
	}
	if got, want := uint64(cs.pulls), st.Retired; got != want {
		t.Errorf("pulled %d records, retired %d: the whole trace should stream through exactly once", got, want)
	}
}
