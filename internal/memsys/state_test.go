package memsys

import (
	"math/rand/v2"
	"reflect"
	"slices"
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

// TestCopyWarmFromMatchesFullCopy is the property behind the
// stamp-compared delta copy: after every CopyWarmFrom the destination
// holds exactly what SetWarmState of the source's snapshot gives a fresh
// hierarchy — the same warm state, the same zeroed tallies, and the same
// results for the next 1k accesses — whatever traffic either side saw
// since they last matched, whether the source was restored from a
// snapshot, and when both sides are cold.
func TestCopyWarmFromMatchesFullCopy(t *testing.T) {
	// A small geometry, so random traffic conflicts in every set; the
	// L1D and L2 span several stamp groups.
	cfg := DefaultConfig()
	cfg.L1I = CacheConfig{Name: "L1I", SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1}
	cfg.L1D = CacheConfig{Name: "L1D", SizeBytes: 2 << 10, LineBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 6}
	cfg.ITLBEntries, cfg.ITLBAssoc, cfg.DTLBEntries, cfg.DTLBAssoc = 8, 2, 8, 2
	rng := rand.New(rand.NewPCG(22, 1))

	// traffic runs n random accesses — functional and timed — on h and
	// returns every timed result. Its footprint is random too: one that
	// fits the L1s leaves sets whose only change is an LRU update.
	traffic := func(h *Hierarchy, r *rand.Rand, n int) []uint64 {
		var out []uint64
		now := uint64(0)
		span := []uint64{512, 4 << 10, 64 << 10}[r.IntN(3)]
		for i := 0; i < n; i++ {
			addr := r.Uint64N(span)
			now += r.Uint64N(4)
			switch r.IntN(6) {
			case 0:
				h.WarmFetch(addr)
			case 1:
				h.WarmLoad(addr)
			case 2:
				h.WarmStore(addr)
			case 3:
				out = append(out, h.IFetch(addr, now))
			case 4:
				out = append(out, h.Load(addr, now))
			default:
				out = append(out, h.Store(addr, now))
			}
		}
		return out
	}
	type tallies struct {
		Hier                              [3]uint64
		L1I, L1D, L2                      [3]uint64
		ITLB, DTLB                        [2]uint64
		MSHRs, WriteBuf, Backside, MemBus uint64
	}
	tally := func(h *Hierarchy) tallies {
		c := func(c *Cache) [3]uint64 { return [3]uint64{c.Accesses, c.Misses, c.Writebacks} }
		return tallies{
			Hier: [3]uint64{h.LoadAccesses, h.StoreAccesses, h.IFetches},
			L1I:  c(h.L1I), L1D: c(h.L1D), L2: c(h.L2),
			ITLB: [2]uint64{h.ITLB.Accesses, h.ITLB.Misses}, DTLB: [2]uint64{h.DTLB.Accesses, h.DTLB.Misses},
			MSHRs: h.MSHRs.Allocs, WriteBuf: h.WriteBuf.Stores, Backside: h.Backside.Transfers, MemBus: h.MemBus.Transfers,
		}
	}
	// check delta-copies src into dst and compares dst with a full copy;
	// follow then runs the next 1k accesses on both. Without it, dst
	// keeps sharing src's stamps for a later copy to skip.
	copies := 0
	check := func(dst, src *Hierarchy, follow bool) {
		t.Helper()
		ref := New(cfg)
		if err := ref.SetWarmState(src.WarmState()); err != nil {
			t.Fatal(err)
		}
		if err := dst.CopyWarmFrom(src); err != nil {
			t.Fatal(err)
		}
		copies++
		if !reflect.DeepEqual(dst.WarmState(), ref.WarmState()) {
			t.Fatalf("copy %d: delta copy's warm state differs from the full copy's", copies)
		}
		if tally(dst) != tally(ref) {
			t.Fatalf("copy %d: delta copy left tallies %+v, want %+v", copies, tally(dst), tally(ref))
		}
		if !follow {
			return
		}
		seed := rng.Uint64()
		got := traffic(dst, rand.New(rand.NewPCG(seed, 0)), 1000)
		want := traffic(ref, rand.New(rand.NewPCG(seed, 0)), 1000)
		if !slices.Equal(got, want) {
			t.Fatalf("copy %d: the next 1k accesses diverge from the full copy's", copies)
		}
		if !reflect.DeepEqual(dst.WarmState(), ref.WarmState()) || tally(dst) != tally(ref) {
			t.Fatalf("copy %d: state diverges from the full copy's after 1k accesses", copies)
		}
	}

	// Two cold instances.
	check(New(cfg), New(cfg), true)
	hs := []*Hierarchy{New(cfg), New(cfg), New(cfg), New(cfg)}
	for step := 0; step < 400; step++ {
		a, b := rng.IntN(len(hs)), rng.IntN(len(hs))
		switch rng.IntN(6) {
		case 0, 1: // traffic on one side since the last copy
			traffic(hs[a], rng, []int{1, 8, 400}[rng.IntN(3)])
		case 2: // a snapshot-restored source
			if err := hs[a].SetWarmState(hs[b].WarmState()); err != nil {
				t.Fatal(err)
			}
		case 3: // a cold instance
			hs[a] = New(cfg)
		default:
			if a != b {
				check(hs[a], hs[b], rng.IntN(2) == 0)
			}
		}
	}
	if copies < 100 {
		t.Fatalf("only %d copies checked", copies)
	}
}
