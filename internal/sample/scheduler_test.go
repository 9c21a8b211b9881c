package sample

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"rix/internal/pipeline"
)

// TestSchedulerStartsNoGoroutine: the pool holds slots, not goroutines.
func TestSchedulerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	sched := NewScheduler(8)
	after := runtime.NumGoroutine()
	sched.Close()
	if after > before {
		t.Fatalf("NewScheduler(8) started %d goroutines, want none", after-before)
	}
	if w := sched.Width(); w != 8 {
		t.Fatalf("Width = %d, want 8", w)
	}
}

// TestCancelWhileWaitingBootsNothing: a Run waiting for a slot returns
// its context error when cancelled, without booting anything.
func TestCancelWhileWaitingBootsNothing(t *testing.T) {
	sched := NewScheduler(1)
	defer sched.Close()
	sl := <-sched.slots // the only slot, out on another window
	defer func() { sched.slots <- sl }()
	// A speculative job lending a ring entry: booting it would copy the
	// entry and count a boot copy.
	cfg := pipeline.DefaultConfig()
	live := getParts(cfg)
	defer putParts(live)
	job := WindowJob{Config: cfg, Sampling: DefaultSampling(), live: live}
	copies, built := bootCopies.Load(), partsBuilt.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := sched.Run(ctx, job)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("Run returned %v with no slot free", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiting Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Run still waiting for a slot")
	}
	if c, b := bootCopies.Load()-copies, partsBuilt.Load()-built; c != 0 || b != 0 {
		t.Fatalf("cancelled waiting Run copied %d entries and built %d part sets, want none", c, b)
	}
}

// TestCloseWaitsForSlots: Close returns only once every slot is back,
// and then hands each slot's part set back to the parts pool.
func TestCloseWaitsForSlots(t *testing.T) {
	sched := NewScheduler(2)
	a, b := <-sched.slots, <-sched.slots // both out on windows
	b.parts = getParts(pipeline.DefaultConfig())
	wp := b.parts
	done := make(chan struct{})
	go func() {
		sched.Close()
		close(done)
	}()
	for _, sl := range []*slot{a, b} {
		select {
		case <-done:
			t.Fatal("Close returned while a window held a slot")
		case <-time.After(20 * time.Millisecond):
		}
		sched.slots <- sl
	}
	<-done
	if b.parts != nil {
		t.Fatal("Close left a slot holding its part set")
	}
	partsPool.Lock()
	pooled := slices.Contains(partsPool.free, wp)
	partsPool.Unlock()
	if !pooled {
		t.Fatal("Close did not hand the slot's part set back to the pool")
	}
	if _, err := sched.Run(context.Background(), WindowJob{}); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Run after Close = %v, want ErrSchedulerClosed", err)
	}
}
