package experiments

import "testing"

// TestSampledMatrixSettles pins the window coordinator's dispatched and
// discarded counts on the sampled Figure 4 matrix over the benchmark
// subset at two window slots — the BenchmarkSampledMatrix setup, read
// from the shared sampled run. The counts are deterministic (they
// depend on the coordinator's width, not on timing), and the discards
// are the misspeculated feedback chains: with the LISP's recency held
// as per-set ranks, a window's final LISP differs from its boot only
// when the window trained it or reordered a set, so almost every
// speculative successor is kept.
func TestSampledMatrixSettles(t *testing.T) {
	r := sampled.suite(t, "fig4")
	if r.dispatched != 787 || r.discarded != 4 {
		t.Errorf("%d windows dispatched, %d discarded; want 787 and 4", r.dispatched, r.discarded)
	}
}
