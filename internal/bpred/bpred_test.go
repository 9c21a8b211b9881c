package bpred

import (
	"math/rand"
	"testing"
)

func TestPredictorLearnsAlwaysTaken(t *testing.T) {
	p := NewPredictor(Config{})
	pc := uint64(0x1000)
	for i := 0; i < 8; i++ {
		_, s := p.Predict(pc)
		p.SpecUpdate(true)
		p.Train(pc, true, s)
	}
	got, _ := p.Predict(pc)
	if !got {
		t.Error("predictor failed to learn always-taken")
	}
}

func TestPredictorLearnsAlternating(t *testing.T) {
	// Gshare with history should learn a strict T/N/T/N pattern that
	// bimodal cannot; the chooser should migrate to gshare.
	p := NewPredictor(Config{})
	pc := uint64(0x2000)
	taken := false
	correct := 0
	const rounds = 400
	for i := 0; i < rounds; i++ {
		pred, s := p.Predict(pc)
		if pred == taken {
			correct++
		}
		p.SpecUpdate(pred)
		if pred != taken {
			p.RestoreAfter(s, taken)
		}
		p.Train(pc, taken, s)
		taken = !taken
	}
	// Expect near-perfect accuracy in the second half.
	if correct < rounds*3/4 {
		t.Errorf("alternating pattern accuracy %d/%d", correct, rounds)
	}
}

func TestHistoryRestore(t *testing.T) {
	p := NewPredictor(Config{})
	_, s := p.Predict(0x1000)
	h0 := s.Hist
	p.SpecUpdate(true)
	p.SpecUpdate(true)
	p.SpecUpdate(false)
	p.Restore(s)
	_, s2 := p.Predict(0x1000)
	if s2.Hist != h0 {
		t.Errorf("Restore: hist %b, want %b", s2.Hist, h0)
	}
	p.RestoreAfter(s, true)
	_, s3 := p.Predict(0x1000)
	if s3.Hist != h0<<1|1 {
		t.Errorf("RestoreAfter: hist %b, want %b", s3.Hist, h0<<1|1)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64)
	if _, ok := b.Predict(0x1000); ok {
		t.Error("cold BTB hit")
	}
	b.Train(0x1000, 0x2000)
	if tgt, ok := b.Predict(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("BTB = %#x, %v", tgt, ok)
	}
	// Conflicting PC evicts (direct-mapped aliasing).
	alias := uint64(0x1000 + 64*4)
	b.Train(alias, 0x3000)
	if tgt, ok := b.Predict(0x1000); ok && tgt == 0x2000 {
		t.Error("aliased entry survived")
	}
}

func TestRASBasic(t *testing.T) {
	r := NewRAS(8)
	if r.Depth() != 0 {
		t.Error("initial depth")
	}
	r.Push(0x1004)
	r.Push(0x2004)
	if r.Depth() != 2 {
		t.Errorf("depth = %d", r.Depth())
	}
	if a, ok := r.Pop(); !ok || a != 0x2004 {
		t.Errorf("pop = %#x, %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 0x1004 {
		t.Errorf("pop = %#x, %v", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop of empty RAS succeeded")
	}
	if r.Depth() != 0 {
		t.Errorf("depth after pops = %d", r.Depth())
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x1004)
	r.Push(0x2004)
	snap := r.Snapshot()
	// Wrong path: pop below the checkpoint, then push garbage over it —
	// the pattern that defeats one-deep repair.
	r.Pop()
	r.Pop()
	r.Push(0xdead)
	r.Push(0xbeef)
	r.Push(0xf00d)
	r.Restore(snap)
	if r.Depth() != 2 {
		t.Errorf("depth = %d", r.Depth())
	}
	if a, ok := r.Pop(); !ok || a != 0x2004 {
		t.Errorf("restored top = %#x, %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 0x1004 {
		t.Errorf("restored second = %#x, %v", a, ok)
	}
	if snap.Tos() != 2 || snap.Depth() != 2 {
		t.Errorf("snap accessors: tos=%d depth=%d", snap.Tos(), snap.Depth())
	}
}

func TestRASSnapshotSharing(t *testing.T) {
	// Snapshots between mutations share one shadow.
	r := NewRAS(8)
	r.Push(0x10)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if s1.shadow != s2.shadow {
		t.Error("snapshots between mutations not shared")
	}
	r.Push(0x20)
	s3 := r.Snapshot()
	if s3.shadow == s1.shadow {
		t.Error("snapshot not invalidated by push")
	}
	// Restoring an old snapshot must not be affected by later mutations.
	r.Restore(s1)
	if a, ok := r.Pop(); !ok || a != 0x10 {
		t.Errorf("restored = %#x, %v", a, ok)
	}
}

// TestRASSnapshotAllocFree: once released snapshots have stocked the
// shadow pool, a fetch-like stream of push/pop/snapshot/release traffic
// allocates nothing, and restores stay exact.
func TestRASSnapshotAllocFree(t *testing.T) {
	r := NewRAS(32)
	live := make([]RASSnap, 0, 128)
	want := make([]uint64, 32)
	round := func() {
		for i := 0; i < 64; i++ {
			if i%3 == 2 {
				r.Pop()
			} else {
				r.Push(uint64(0x1000 + 4*i))
			}
			live = append(live, r.Snapshot(), r.Snapshot())
		}
		mid := live[len(live)/2]
		copy(want, mid.shadow.stack)
		tos := mid.Tos()
		for _, s := range live {
			r.Release(s)
		}
		live = live[:0]
		r.Restore(mid) // released but not yet reused: still exact
		if r.tos != tos {
			t.Fatalf("restored tos = %d, want %d", r.tos, tos)
		}
		for i, v := range want[:tos] {
			if r.stack[i] != v {
				t.Fatalf("restored entry %d = %#x, want %#x", i, r.stack[i], v)
			}
		}
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("steady-state snapshot round allocated %v times, want 0", n)
	}
}

func TestRASOverflow(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 10; i++ {
		r.Push(uint64(0x1000 + i*4))
	}
	if r.Depth() != 10 {
		t.Errorf("depth = %d, want 10 (unclamped)", r.Depth())
	}
	// Popping gives the most recent pushes that fit.
	if a, ok := r.Pop(); !ok || a != 0x1000+9*4 {
		t.Errorf("pop after overflow = %#x, %v", a, ok)
	}
}

func TestRASDepthTracksRecursion(t *testing.T) {
	// Depth is the IT call-depth index: push/pop symmetric.
	r := NewRAS(32)
	rng := rand.New(rand.NewSource(1))
	depth := 0
	for i := 0; i < 1000; i++ {
		if depth == 0 || rng.Intn(2) == 0 {
			r.Push(rng.Uint64())
			depth++
		} else {
			r.Pop()
			depth--
		}
		if r.Depth() != depth {
			t.Fatalf("step %d: depth %d, want %d", i, r.Depth(), depth)
		}
	}
}

func TestCHT(t *testing.T) {
	c := NewCHT(256)
	if c.Predict(0x1000) {
		t.Error("cold CHT hit")
	}
	c.Train(0x1000)
	if !c.Predict(0x1000) {
		t.Error("trained CHT miss")
	}
	// Different PC in the same set evicts.
	alias := uint64(0x1000 + 256*4)
	c.Train(alias)
	if c.Predict(0x1000) {
		t.Error("aliased CHT entry survived")
	}
	if !c.Predict(alias) {
		t.Error("newly trained entry missing")
	}
}

func TestPredictorStats(t *testing.T) {
	p := NewPredictor(Config{})
	for i := 0; i < 5; i++ {
		p.Predict(uint64(0x1000 + i*4))
	}
	if p.Lookups != 5 {
		t.Errorf("Lookups = %d", p.Lookups)
	}
	b := NewBTB(16)
	b.Train(0x10, 0x20)
	b.Predict(0x10)
	b.Predict(0x14)
	if b.Lookups != 2 || b.Hits != 1 {
		t.Errorf("BTB stats: %d/%d", b.Hits, b.Lookups)
	}
}
