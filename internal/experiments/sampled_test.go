package experiments

import (
	"sync"
	"testing"

	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
)

// TestSampledMatrixSettles pins the window coordinator's dispatched and
// discarded counts on the sampled Figure 4 matrix over the benchmark
// subset at two window slots — the BenchmarkSampledMatrix setup. The
// counts are deterministic (they depend on the coordinator's width, not
// on timing), and the discards are the misspeculated feedback chains:
// with the LISP's recency held as per-set ranks, a window's final LISP
// differs from its boot only when the window trained it or reordered a
// set, so almost every speculative successor is kept.
func TestSampledMatrixSettles(t *testing.T) {
	fig4, ok := runner.Lookup("fig4")
	if !ok {
		t.Fatal("fig4 spec not registered")
	}
	sp := runner.Sampled(fig4, sample.DefaultSampling())
	e, err := runner.NewEngine([]string{"gzip", "crafty", "vortex", "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel, e.WindowJobs = 2, 2
	var mu sync.Mutex
	var dispatched, discarded int
	e.Observer = run.ObserverFunc(func(ev run.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case run.WindowScheduled:
			dispatched++
		case run.WindowDiscarded:
			discarded++
		}
	})
	if _, err := e.Gather(bg, &sp); err != nil {
		t.Fatal(err)
	}
	if dispatched != 787 || discarded != 4 {
		t.Errorf("%d windows dispatched, %d discarded; want 787 and 4", dispatched, discarded)
	}
}
