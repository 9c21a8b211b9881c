package memsys

import (
	"reflect"
	"testing"
)

// TestCacheStateRoundTrip warms a cache, snapshots, restores, and
// verifies identical hit/miss behavior (including LRU decisions).
func TestCacheStateRoundTrip(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2})
	for i := 0; i < 500; i++ {
		c.Access(uint64(i*32%4096+i*64), i%5 == 0)
	}
	r := NewCache(CacheConfig{Name: "t", SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2})
	if err := r.SetState(c.State()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		addr := uint64(i * 96)
		h1, _, _ := c.Access(addr, false)
		h2, _, _ := r.Access(addr, false)
		if h1 != h2 {
			t.Fatalf("divergence at %#x: %v %v", addr, h1, h2)
		}
	}
	small := NewCache(CacheConfig{Name: "t", SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2})
	if err := small.SetState(c.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// TestHierarchyWarmRoundTrip verifies warm state transfer and that warm
// accessors touch the same tag state the timing model uses.
func TestHierarchyWarmRoundTrip(t *testing.T) {
	h := New(DefaultConfig())
	for i := 0; i < 2000; i++ {
		h.WarmFetch(uint64(0x1000 + (i%300)*32))
		h.WarmLoad(uint64(0x100000 + (i%700)*8))
		if i%3 == 0 {
			h.WarmStore(uint64(0x200000 + (i%100)*8))
		}
	}
	if h.L1D.Accesses == 0 || h.L1I.Accesses == 0 || h.L2.Accesses == 0 {
		t.Fatal("warm accessors did not touch the caches")
	}

	viaState := New(DefaultConfig())
	if err := viaState.SetWarmState(h.WarmState()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaState.WarmState(), h.WarmState()) {
		t.Fatal("SetWarmState did not reproduce the source's warm state")
	}
	// A warm hit in the original is a warm hit in the copy.
	for _, probe := range []uint64{0x100000, 0x200000, 0x1000} {
		want := h.L1D.Probe(probe) || h.L1I.Probe(probe)
		got := viaState.L1D.Probe(probe) || viaState.L1I.Probe(probe)
		if want != got {
			t.Errorf("probe %#x: original %v copy %v", probe, want, got)
		}
	}
	// Timing state starts empty in the copy.
	if viaState.MSHRs.Allocs != 0 || viaState.WriteBuf.Stores != 0 {
		t.Error("copy carried timing state")
	}
}
