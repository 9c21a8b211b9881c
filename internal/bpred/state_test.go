package bpred

import (
	"reflect"
	"testing"
)

// TestPredictorStateRoundTrip trains a predictor, restores its snapshot
// into a fresh one, and verifies identical behavior and rejection of
// wrong geometry.
func TestPredictorStateRoundTrip(t *testing.T) {
	p := NewPredictor(Config{})
	for i := 0; i < 5000; i++ {
		pc := uint64(0x1000 + (i%37)*4)
		taken := i%3 != 0
		_, snap := p.Predict(pc)
		p.SpecUpdate(taken)
		p.Train(pc, taken, snap)
	}
	c := NewPredictor(Config{})
	if err := c.SetState(p.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.State(), c.State()) {
		t.Fatal("restored state differs")
	}
	// Identical predictions after restoring.
	for i := 0; i < 100; i++ {
		pc := uint64(0x1000 + (i%41)*4)
		got, _ := c.Predict(pc)
		want, _ := p.Predict(pc)
		if got != want {
			t.Fatalf("restored predictor diverges at %#x", pc)
		}
		p.SpecUpdate(got)
		c.SpecUpdate(got)
	}
	small := NewPredictor(Config{BimodalEntries: 16, GshareEntries: 16, ChooserEntries: 16})
	if err := small.SetState(p.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestBTBStateRoundTrip(t *testing.T) {
	b := NewBTB(64)
	b.Train(0x100, 0x2000)
	b.Train(0x104, 0x3000)
	c := NewBTB(64)
	if err := c.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	if tgt, ok := c.Predict(0x100); !ok || tgt != 0x2000 {
		t.Fatalf("restored predict: %#x %v", tgt, ok)
	}
	if tgt, ok := b.Predict(0x100); !ok || tgt != 0x2000 {
		t.Fatalf("source predict: %#x %v", tgt, ok)
	}
	if err := NewBTB(32).SetState(b.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestRASStateRoundTrip(t *testing.T) {
	r := NewRAS(8)
	for i := 0; i < 12; i++ { // overflow the stack deliberately
		r.Push(uint64(0x1000 + i*4))
	}
	c := NewRAS(8)
	if err := c.SetState(r.State()); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != r.Depth() {
		t.Fatalf("restored depth %d != %d", c.Depth(), r.Depth())
	}
	for {
		a, ok1 := r.Pop()
		b, ok2 := c.Pop()
		if ok1 != ok2 || a != b {
			t.Fatalf("restored pop diverges: %#x/%v vs %#x/%v", a, ok1, b, ok2)
		}
		if !ok1 {
			break
		}
	}
	if err := NewRAS(4).SetState(r.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
	bad := r.State()
	bad.Tos = 99
	if err := NewRAS(8).SetState(bad); err == nil {
		t.Error("out-of-range tos accepted")
	}
}

func TestCHTStateRoundTrip(t *testing.T) {
	c := NewCHT(16)
	c.Train(0x40)
	cl := NewCHT(16)
	if err := cl.SetState(c.State()); err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x40, 0x44} {
		if got, want := cl.Predict(pc), c.Predict(pc); got != want {
			t.Errorf("restored Predict(%#x) = %v, source %v", pc, got, want)
		}
	}
	if !cl.Predict(0x40) {
		t.Error("restored table lost trained entry")
	}
	if err := NewCHT(8).SetState(c.State()); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.BTBEntries != 4096 || d.RASEntries != 32 || d.CHTEntries != 256 || d.BimodalEntries != 8192 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	c := Config{BTBEntries: 64}.WithDefaults()
	if c.BTBEntries != 64 {
		t.Errorf("explicit size overridden: %+v", c)
	}
}
