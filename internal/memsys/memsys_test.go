package memsys

import (
	"math/rand"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitLatency: 2})
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Error("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Error("second access missed")
	}
	// Same line, different offset.
	hit, _, _ = c.Access(0x101f, false)
	if !hit {
		t.Error("same-line access missed")
	}
	// Next line.
	hit, _, _ = c.Access(0x1020, false)
	if hit {
		t.Error("next-line access hit")
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2-way: fill both ways of a set, touch the first, then force an
	// eviction — the untouched way must be the victim.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitLatency: 1})
	// Set stride = 1024/2 = 512 bytes (16 sets * 32B).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400) // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if hit, _, _ := c.Access(a, false); !hit {
		t.Error("MRU line evicted")
	}
	if hit, _, _ := c.Access(b, false); hit {
		t.Error("LRU line survived")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 64, LineBytes: 32, Assoc: 1, HitLatency: 1})
	c.Access(0x0000, true) // dirty
	_, victim, dirty := c.Access(0x0040, false)
	if !dirty {
		t.Error("dirty victim not reported")
	}
	if victim != 0x0000 {
		t.Errorf("victim addr = %#x", victim)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
}

func TestCacheProbeDoesNotMutate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 64, LineBytes: 32, Assoc: 1, HitLatency: 1})
	if c.Probe(0x1000) {
		t.Error("cold probe hit")
	}
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("probe mutated stats")
	}
	c.Access(0x1000, false)
	if !c.Probe(0x1000) {
		t.Error("probe missed resident line")
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 2, 4096, 30)
	if p := tlb.Penalty(0x1000); p != 30 {
		t.Errorf("cold TLB penalty = %d", p)
	}
	if p := tlb.Penalty(0x1400); p != 0 {
		t.Errorf("same-page penalty = %d", p)
	}
	if p := tlb.Penalty(0x2000); p != 30 {
		t.Errorf("new-page penalty = %d", p)
	}
}

func TestBusContention(t *testing.T) {
	b := NewBus(32, 4)
	// 64 bytes = 2 beats * 4 cycles = 8 cycles.
	done1 := b.Transfer(100, 64)
	if done1 != 108 {
		t.Errorf("first transfer done at %d", done1)
	}
	// Second transfer must queue behind the first.
	done2 := b.Transfer(100, 64)
	if done2 != 116 {
		t.Errorf("second transfer done at %d", done2)
	}
	// A later transfer starts fresh.
	done3 := b.Transfer(200, 32)
	if done3 != 204 {
		t.Errorf("third transfer done at %d", done3)
	}
	if b.BusyCycles != 8+8+4 {
		t.Errorf("busy cycles = %d", b.BusyCycles)
	}
}

func TestMSHRMergeAndFull(t *testing.T) {
	m := NewMSHRFile(2)
	if _, ok := m.Lookup(0x100, 5); ok {
		t.Error("empty MSHR lookup hit")
	}
	m.Alloc(0x100, 5, 50)
	if ready, ok := m.Lookup(0x100, 10); !ok || ready != 50 {
		t.Errorf("merge = %d, %v", ready, ok)
	}
	m.Alloc(0x200, 6, 60)
	if wait, ok := m.Alloc(0x300, 7, 70); ok || wait != 50 {
		t.Errorf("full alloc: wait=%d ok=%v", wait, ok)
	}
	// After the first fill completes, space frees.
	if _, ok := m.Alloc(0x300, 51, 90); !ok {
		t.Error("alloc after free failed")
	}
	// Completed fills stop matching.
	if _, ok := m.Lookup(0x100, 100); ok {
		t.Error("completed fill still matched")
	}
}

func TestWriteBuffer(t *testing.T) {
	w := NewWriteBuffer(2, 10)
	if s := w.Add(100); s != 100 {
		t.Errorf("first add stalled to %d", s)
	}
	if s := w.Add(100); s != 100 {
		t.Errorf("second add stalled to %d", s)
	}
	// Buffer full: third store waits for the first drain (cycle 110).
	if s := w.Add(100); s != 110 {
		t.Errorf("full add stalled to %d", s)
	}
	if w.FullStalls != 1 {
		t.Errorf("FullStalls = %d", w.FullStalls)
	}
	// Far in the future everything has drained.
	if s := w.Add(10_000); s != 10_000 {
		t.Errorf("late add stalled to %d", s)
	}
}

func TestHierarchyLoadLatencies(t *testing.T) {
	h := New(DefaultConfig())
	addr := uint64(0x10_0000)

	// Cold: TLB miss (30) + L1 miss -> L2 cold miss -> memory.
	done := h.Load(addr, 1000)
	cold := done - 1000
	if cold < 80 {
		t.Errorf("cold load latency %d, want >= 80 (memory)", cold)
	}

	// Warm L1 hit: exactly TLB-hit + 2 cycles.
	done = h.Load(addr, 2000)
	if done != 2002 {
		t.Errorf("L1 hit latency = %d, want 2", done-2000)
	}

	// L2 hit: evict the L1 line by conflict, keep L2 resident.
	// L1D is 32KB 2-way => way size 16KB.
	conflict1 := addr + 16<<10
	conflict2 := addr + 32<<10
	h.Load(conflict1, 3000)
	h.Load(conflict2, 4000)
	done = h.Load(addr, 5000)
	lat := done - 5000
	if lat <= 2 || lat >= 80 {
		t.Errorf("L2 hit latency = %d, want between L1 and memory", lat)
	}
}

func TestHierarchyMSHRMergesParallelMisses(t *testing.T) {
	h := New(DefaultConfig())
	a := uint64(0x20_0000)
	d1 := h.Load(a, 1000)
	d2 := h.Load(a+8, 1001) // same line, one cycle later
	if d2 > d1 {
		t.Errorf("merged miss finished later (%d) than primary (%d)", d2, d1)
	}
}

func TestHierarchyStoreAdmission(t *testing.T) {
	h := New(DefaultConfig())
	// Warm the TLB and line.
	h.Load(0x30_0000, 100)
	now := uint64(10_000)
	if got := h.Store(0x30_0000, now); got != now {
		t.Errorf("store admission stalled: %d", got)
	}
	if h.WriteBuf.Stores == 0 {
		t.Error("store did not reach write buffer")
	}
}

func TestHierarchyIFetch(t *testing.T) {
	h := New(DefaultConfig())
	pc := uint64(0x1000)
	d1 := h.IFetch(pc, 100)
	if d1 <= 100 {
		t.Error("cold ifetch free")
	}
	d2 := h.IFetch(pc, 1000)
	if d2 != 1001 {
		t.Errorf("warm ifetch latency = %d, want 1", d2-1000)
	}
}

func TestHierarchyMonotonicBusTimes(t *testing.T) {
	// Stress random loads; bus reservations must never go backwards and
	// results must be >= request time + min latency.
	h := New(DefaultConfig())
	rng := rand.New(rand.NewSource(9))
	now := uint64(100)
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 24))
		done := h.Load(addr, now)
		if done < now+2 {
			t.Fatalf("load at %d done at %d (< min latency)", now, done)
		}
		now += uint64(rng.Intn(3))
	}
}
