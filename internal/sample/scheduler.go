package sample

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// This file is the work-stealing window scheduler: a process-wide pool
// of worker slots that every sampled cell draws from. Cells submit
// window jobs into one shared FIFO; each worker owns a slot whose boot
// structures (predictor, BTB, RAS, CHT, hierarchy, LISP, pipeline
// scratch) are recycled across every window the slot ever executes —
// regardless of which cell the window belongs to. Stealing is implicit
// in the shared queue: a cell that has settled its speculative waves
// stops submitting, so its share of the workers immediately drains the
// windows other cells still have queued. See doc/ARCHITECTURE.md for
// the slot lifecycle diagram.

// Scheduler is a shared pool of window worker slots. One scheduler
// serves any number of concurrent sampled runs (Config.Scheduler): all
// of them dispatch speculative detail windows into the same queue, and
// the pool's slots execute them in arrival order. A run that settles
// early implicitly returns its slots — the queue simply stops holding
// its jobs — and runs still dispatching pick them up; Hooks.SlotStolen
// fires on each such cross-cell handoff.
//
// Each worker slot carries pooled boot structures that are restored
// in place (SetState into existing arrays) for every window it runs,
// so steady-state window boot allocates only the per-window memory
// image instead of a full set of predictor and cache clones.
//
// The zero Scheduler is not usable; construct with NewScheduler and
// release with Close after every run sharing it has returned.
type Scheduler struct {
	queue chan *schedTask
	wg    sync.WaitGroup
	size  int

	mu     sync.RWMutex // orders submits against Close
	closed bool
}

// ErrSchedulerClosed is the error for a window submitted after Close.
var ErrSchedulerClosed = errors.New("sample: window scheduler is closed")

// schedTask is one speculatively dispatched detail window in the shared
// queue.
type schedTask struct {
	cell    *cellTag    // owning run, for steal detection
	claimed atomic.Bool // set by a worker taking the task to run, or by its owner withdrawing it — whichever comes first
	ctx     context.Context
	job     WindowJob
	out     chan outcome // buffered 1: workers never block on delivery
}

// cellTag identifies one sampled run for the lifetime of its window
// phase. Pointer identity is the comparison, so concurrent runs —
// even of the same program under the same configuration — are distinct
// cells to the scheduler.
type cellTag struct {
	hooks *Hooks
}

// NewScheduler starts a pool of `slots` worker slots (minimum 1).
func NewScheduler(slots int) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	s := &Scheduler{
		// Submission blocks only under heavy cross-cell pressure; the
		// buffer keeps dispatch bursts (a full speculative wave per
		// cell) off the coordinators' critical path.
		queue: make(chan *schedTask, slots*4),
		size:  slots,
	}
	s.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go s.worker(i)
	}
	return s
}

// Size is the number of worker slots — the bound on concurrently
// executing detail windows across every run sharing the pool.
func (s *Scheduler) Size() int { return s.size }

// Close stops the pool after the in-flight and queued jobs drain. Call
// only after every run sharing the scheduler has returned; a window
// submitted after Close fails with ErrSchedulerClosed. Close is
// idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// submit enqueues one window job. Blocks only when the queue is full
// (every slot busy and the backlog at capacity) — safe, because workers
// never block and therefore always drain the queue, so a Close waiting
// behind a blocked submit is delayed, never deadlocked.
func (s *Scheduler) submit(t *schedTask) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrSchedulerClosed
	}
	s.queue <- t
	return nil
}

// worker owns one slot and executes queued window jobs until Close.
func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	sl := &slot{id: id}
	for t := range s.queue {
		if !t.claimed.CompareAndSwap(false, true) {
			// Withdrawn before starting (a misspeculated or cancelled
			// window): skip the work entirely. Its owner has stopped
			// listening, so no result is owed.
			continue
		}
		if sl.lastCell != nil && sl.lastCell != t.cell && t.cell.hooks.SlotStolen != nil {
			// This slot last served a different cell: the submitting
			// cell just picked up a slot another cell released.
			t.cell.hooks.SlotStolen(id)
		}
		sl.lastCell = t.cell
		res, err := sl.run(t.ctx, t.job)
		t.out <- outcome{res: res, err: err}
	}
}
