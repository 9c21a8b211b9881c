package regfile

import (
	"math/rand"
	"reflect"
	"testing"
)

func newGeneral(t *testing.T) *File {
	t.Helper()
	return New(Config{NumRegs: 64, GenBits: 4, RefBits: 4, GeneralMode: true})
}

func newSquash(t *testing.T) *File {
	t.Helper()
	return New(Config{NumRegs: 64, GenBits: 4, RefBits: 4, GeneralMode: false})
}

func TestAllocBasics(t *testing.T) {
	f := newGeneral(t)
	p, ok := f.Alloc()
	if !ok || p == ZeroReg {
		t.Fatalf("Alloc = %d, %v", p, ok)
	}
	if f.RefCount(p) != 1 || f.Ready(p) || !f.Valid(p) {
		t.Errorf("fresh reg state: ref=%d ready=%v valid=%v", f.RefCount(p), f.Ready(p), f.Valid(p))
	}
	f.SetReady(p, 42)
	if !f.Ready(p) || f.Value(p) != 42 {
		t.Errorf("SetReady failed")
	}
}

func TestZeroRegPinned(t *testing.T) {
	f := newGeneral(t)
	if !f.Ready(ZeroReg) || f.Value(ZeroReg) != 0 || f.RefCount(ZeroReg) != 1 {
		t.Error("zero register not pinned ready/zero")
	}
	f.SetReady(ZeroReg, 99) // must be ignored
	if f.Value(ZeroReg) != 0 {
		t.Error("zero register value mutated")
	}
	f.Release(ZeroReg, CauseShadow) // must be a no-op
	if f.RefCount(ZeroReg) != 1 {
		t.Error("zero register released")
	}
	// Zero register must never be handed out by Alloc.
	for i := 0; i < f.NumRegs()*2; i++ {
		p, ok := f.Alloc()
		if !ok {
			break
		}
		if p == ZeroReg {
			t.Fatal("Alloc returned the zero register")
		}
	}
}

func TestTwoZeroReferenceStates(t *testing.T) {
	f := newGeneral(t)

	// Squash of an executed producer -> 0/T, integration-eligible.
	p1, _ := f.Alloc()
	g1 := f.Gen(p1)
	f.SetReady(p1, 7)
	f.Release(p1, CauseSquash)
	if !f.Eligible(p1, g1) {
		t.Error("executed+squashed register must be 0/T eligible")
	}

	// Squash of an un-executed producer -> 0/F, never eligible (the
	// deadlock-avoidance state of §2.2).
	p2, _ := f.Alloc()
	g2 := f.Gen(p2)
	f.Release(p2, CauseSquash)
	if f.Eligible(p2, g2) {
		t.Error("un-executed squashed register must be 0/F")
	}

	// Shadowed retired value in general mode -> 0/T.
	p3, _ := f.Alloc()
	g3 := f.Gen(p3)
	f.SetReady(p3, 9)
	f.Release(p3, CauseShadow)
	if !f.Eligible(p3, g3) {
		t.Error("general mode: shadowed register must stay eligible")
	}
}

func TestSquashOnlyModeShadowFrees(t *testing.T) {
	f := newSquash(t)
	p, _ := f.Alloc()
	g := f.Gen(p)
	f.SetReady(p, 7)
	f.Release(p, CauseShadow)
	if f.Eligible(p, g) {
		t.Error("squash-only mode: shadowed register must be 0/F")
	}

	// Squashed executed register IS eligible in squash-only mode.
	p2, _ := f.Alloc()
	g2 := f.Gen(p2)
	f.SetReady(p2, 8)
	f.Release(p2, CauseSquash)
	if !f.Eligible(p2, g2) {
		t.Error("squash-only mode: squashed register must be eligible")
	}

	// ...but an actively mapped register is NOT (no simultaneous sharing
	// in the baseline).
	p3, _ := f.Alloc()
	g3 := f.Gen(p3)
	f.SetReady(p3, 9)
	if f.Eligible(p3, g3) {
		t.Error("squash-only mode: active register must not be eligible")
	}
}

func TestGeneralModeSimultaneousSharing(t *testing.T) {
	f := newGeneral(t)
	p, _ := f.Alloc()
	g := f.Gen(p)
	f.SetReady(p, 7)
	if !f.Eligible(p, g) {
		t.Fatal("active register must be eligible in general mode")
	}
	if !f.Integrate(p) || !f.Integrate(p) {
		t.Fatal("integrations failed")
	}
	if f.RefCount(p) != 3 {
		t.Errorf("refcount = %d, want 3", f.RefCount(p))
	}
	// Partial dissolution keeps the register shared.
	f.Release(p, CauseSquash)
	if f.RefCount(p) != 2 || !f.Eligible(p, g) {
		t.Error("partial release broke sharing")
	}
	f.Release(p, CauseShadow)
	f.Release(p, CauseSquash)
	if f.RefCount(p) != 0 || !f.Eligible(p, g) {
		t.Error("full dissolution of executed reg must leave 0/T")
	}
}

func TestInFlightIntegrationEligible(t *testing.T) {
	// Integrating a not-yet-executed in-flight result is legal in general
	// mode (the "rename" status category of Figure 5).
	f := newGeneral(t)
	p, _ := f.Alloc()
	g := f.Gen(p)
	if !f.Eligible(p, g) {
		t.Error("in-flight (not ready) register must be eligible in general mode")
	}
}

func TestGenerationCounters(t *testing.T) {
	f := newGeneral(t)
	p, _ := f.Alloc()
	gOld := f.Gen(p)
	f.SetReady(p, 1)
	f.Release(p, CauseSquash) // 0/T
	// Drain the free queue until p is reallocated.
	seen := false
	for i := 0; i < f.NumRegs()*2 && !seen; i++ {
		q, ok := f.Alloc()
		if !ok {
			t.Fatal("exhausted before reallocating p")
		}
		seen = q == p
	}
	if !seen {
		t.Fatal("p never reallocated")
	}
	if f.Gen(p) == gOld {
		t.Error("generation did not change on reallocation")
	}
	if f.Eligible(p, gOld) {
		t.Error("stale generation still eligible")
	}
}

func TestGenBitsZeroDisables(t *testing.T) {
	f := New(Config{NumRegs: 64, GenBits: 0, RefBits: 4, GeneralMode: true})
	p, _ := f.Alloc()
	if f.Gen(p) != 0 {
		t.Error("gen must be 0 with 0 bits")
	}
	f.SetReady(p, 1)
	f.Release(p, CauseSquash)
	for i := 0; i < 200; i++ {
		q, ok := f.Alloc()
		if !ok {
			break
		}
		if q == p && f.Gen(p) != 0 {
			t.Error("gen changed despite 0-bit config")
		}
	}
}

func TestRefCounterSaturation(t *testing.T) {
	f := New(Config{NumRegs: 64, GenBits: 4, RefBits: 2, GeneralMode: true})
	p, _ := f.Alloc() // ref 1
	f.SetReady(p, 1)
	if !f.Integrate(p) || !f.Integrate(p) {
		t.Fatal("integrations to 3 must succeed")
	}
	if f.Integrate(p) {
		t.Error("integration past saturation (2-bit => max 3) must fail")
	}
	if f.RefSaturated != 1 {
		t.Errorf("RefSaturated = %d", f.RefSaturated)
	}
}

func TestAllocExhaustion(t *testing.T) {
	f := New(Config{NumRegs: 34, GenBits: 4, RefBits: 4, GeneralMode: true})
	n := 0
	for {
		_, ok := f.Alloc()
		if !ok {
			break
		}
		n++
	}
	if n != 33 { // 34 minus pinned zero register
		t.Errorf("allocated %d, want 33", n)
	}
}

func TestStaleFreeQueueEntriesSkipped(t *testing.T) {
	f := newGeneral(t)
	p, _ := f.Alloc()
	g := f.Gen(p)
	f.SetReady(p, 5)
	f.Release(p, CauseShadow) // 0/T, now queued
	// Re-share it via integration while it waits in the queue.
	if !f.Eligible(p, g) || !f.Integrate(p) {
		t.Fatal("re-integration of queued register failed")
	}
	// Alloc must never hand out p while it is mapped.
	for i := 0; i < f.NumRegs()*2; i++ {
		q, ok := f.Alloc()
		if !ok {
			break
		}
		if q == p {
			t.Fatal("Alloc returned a register with live references")
		}
	}
}

func TestReleaseUnmappedPanics(t *testing.T) {
	f := newGeneral(t)
	p, _ := f.Alloc()
	f.Release(p, CauseSquash)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	f.Release(p, CauseSquash)
}

// Randomized audit: a model of live mappings tracks every operation; the
// file's reference counts must match exactly, and Alloc must never return
// a live register.
func TestRandomizedRefcountAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(Config{NumRegs: 48, GenBits: 4, RefBits: 4, GeneralMode: true})
	live := map[PReg]int{}
	total := 0
	var liveList []PReg

	addMapping := func(p PReg) {
		live[p]++
		total++
		liveList = append(liveList, p)
	}
	dropRandom := func(cause ReleaseCause) {
		if len(liveList) == 0 {
			return
		}
		i := rng.Intn(len(liveList))
		p := liveList[i]
		liveList[i] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
		live[p]--
		total--
		f.Release(p, cause)
	}

	for step := 0; step < 20000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			if p, ok := f.Alloc(); ok {
				if live[p] != 0 {
					t.Fatalf("step %d: Alloc returned live p%d", step, p)
				}
				addMapping(p)
				if rng.Intn(2) == 0 {
					f.SetReady(p, rng.Uint64())
				}
			}
		case 4, 5, 6:
			if len(liveList) > 0 {
				p := liveList[rng.Intn(len(liveList))]
				if f.Eligible(p, f.Gen(p)) && f.Integrate(p) {
					addMapping(p)
				}
			}
		case 7, 8:
			dropRandom(CauseSquash)
		case 9:
			dropRandom(CauseShadow)
		}
		if f.RefSum() != total {
			t.Fatalf("step %d: refsum %d != model %d", step, f.RefSum(), total)
		}
	}
	// Drain everything; no leaks.
	for len(liveList) > 0 {
		dropRandom(CauseSquash)
	}
	if err := f.CheckLeaks(0); err != nil {
		t.Error(err)
	}
}

func TestEligibleRejectsBadArgs(t *testing.T) {
	f := newGeneral(t)
	if f.Eligible(NoReg, 0) {
		t.Error("NoReg eligible")
	}
	if f.Eligible(PReg(9999), 0) {
		t.Error("out-of-range eligible")
	}
}

// TestResetMatchesNew: a used file reset to any configuration of its
// size is indistinguishable from a new one, mode, counter widths and
// free queue included; a configuration of another size is refused and
// leaves the file alone.
func TestResetMatchesNew(t *testing.T) {
	f := newGeneral(t)
	for i := 0; i < 40; i++ {
		p, _ := f.Alloc()
		f.SetReady(p, uint64(i))
		if i%3 == 0 {
			f.Integrate(p)
		}
		if i%2 == 0 {
			f.Release(p, CauseShadow)
		}
	}
	for _, cfg := range []Config{
		{NumRegs: 64, GenBits: 4, RefBits: 4},
		{NumRegs: 64, GenBits: 0, RefBits: 0, GeneralMode: true},
		{NumRegs: 64, GenBits: 9, RefBits: 16},
	} {
		if !f.Reset(cfg) {
			t.Fatalf("Reset(%+v) refused a file of its size", cfg)
		}
		if !reflect.DeepEqual(f, New(cfg)) {
			t.Errorf("Reset(%+v) differs from New", cfg)
		}
		f.Alloc()
	}
	before := *f
	if f.Reset(Config{NumRegs: 65}) || !reflect.DeepEqual(*f, before) {
		t.Error("Reset to another size was accepted or changed the file")
	}
}
