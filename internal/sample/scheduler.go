package sample

import (
	"context"
	"errors"
	"sync"
)

// This file is the window scheduler: a process-wide pool of slots that
// every sampled cell draws from. A slot is a window's boot structures
// (predictor, BTB, RAS, CHT, hierarchy) and the last pipeline it
// finished, which it recycles across every window it runs, whichever
// cell the window belongs to; a window that fails or is cancelled
// leaves it no pipeline. The pool holds slots, not goroutines: each
// window already has a goroutine of its own (runParallel dispatches one
// per in-flight window), so Run takes a free slot and runs the window
// on the calling goroutine. Stealing is implicit in the slot hand-out: a cell that has
// settled its speculative waves stops asking for slots, so its share of
// them passes at once to the cells still waiting. See
// doc/ARCHITECTURE.md for the slot lifecycle diagram.

// Scheduler is a shared pool of window slots, and the default Executor.
// One scheduler serves any number of concurrent sampled runs
// (Config.Scheduler): a window of any of them takes the next free slot,
// waiting windows in the order they asked. A run that settles early
// implicitly returns its slots — it simply stops asking — and runs
// still dispatching pick them up.
//
// Each slot carries pooled boot structures that are restored in place
// (SetState into existing arrays) for every window it runs, and the
// window's pipeline takes over the slot's last finished one for parts,
// so steady-state window boot allocates only the per-window memory
// image, trace emulator and pipeline struct instead of a full set of
// predictor and cache clones.
//
// The zero Scheduler is not usable; construct with NewScheduler and
// release with Close after every run sharing it has returned.
type Scheduler struct {
	slots  chan *slot    // the free slots
	closed chan struct{} // closed by Close
	once   sync.Once
}

// ErrSchedulerClosed is the error for a window submitted after Close.
var ErrSchedulerClosed = errors.New("sample: window scheduler is closed")

// NewScheduler returns a pool of `slots` window slots (minimum 1).
func NewScheduler(slots int) *Scheduler {
	s := &Scheduler{slots: make(chan *slot, max(slots, 1)), closed: make(chan struct{})}
	for range cap(s.slots) {
		s.slots <- new(slot)
	}
	return s
}

// Width is the number of slots — the bound on concurrently executing
// detail windows across every run sharing the pool.
func (s *Scheduler) Width() int { return cap(s.slots) }

// Run executes one window job on the calling goroutine once a slot is
// free. A job cancelled while it waits returns its context error, and
// one submitted after Close returns ErrSchedulerClosed; neither boots
// anything.
func (s *Scheduler) Run(ctx context.Context, job WindowJob) (WindowResult, error) {
	if err := ctx.Err(); err != nil {
		return WindowResult{}, err // discarded before asking: the pool is untouched
	}
	var sl *slot
	select {
	case sl = <-s.slots:
	case <-ctx.Done():
		return WindowResult{}, ctx.Err()
	case <-s.closed:
		return WindowResult{}, ErrSchedulerClosed
	}
	defer func() { s.slots <- sl }()
	return sl.run(ctx, job)
}

// Close waits until every slot is back, then returns each slot's warm
// parts to the parts pool. Call only after every run sharing the
// scheduler has returned; a window submitted after Close fails with
// ErrSchedulerClosed. Close is idempotent.
func (s *Scheduler) Close() {
	s.once.Do(func() {
		close(s.closed)
		for range cap(s.slots) {
			(<-s.slots).release()
		}
	})
}
