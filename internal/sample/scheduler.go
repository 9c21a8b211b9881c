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

// Scheduler is a shared pool of window worker slots, and the default
// Executor. One scheduler serves any number of concurrent sampled runs
// (Config.Scheduler): all of them dispatch speculative detail windows
// into the same queue, and the pool's slots execute them in arrival
// order. A run that settles
// early implicitly returns its slots — the queue simply stops holding
// its jobs — and runs still dispatching pick them up.
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
	claimed atomic.Bool // set by a worker taking the task to run, or by its owner withdrawing it — whichever comes first
	ctx     context.Context
	job     WindowJob
	out     chan outcome // buffered 1: workers never block on delivery
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
		go s.worker()
	}
	return s
}

// Width is the number of worker slots — the bound on concurrently
// executing detail windows across every run sharing the pool.
func (s *Scheduler) Width() int { return s.size }

// Run submits one window job into the shared queue and waits for its
// result, or withdraws it on the job's cancellation.
func (s *Scheduler) Run(ctx context.Context, job WindowJob) (WindowResult, error) {
	if err := ctx.Err(); err != nil {
		return WindowResult{}, err // discarded before submission: no task queued
	}
	t := &schedTask{ctx: ctx, job: job, out: make(chan outcome, 1)}
	if err := s.submit(t); err != nil {
		return WindowResult{}, err
	}
	select {
	case o := <-t.out:
		return o.res, o.err
	case <-ctx.Done():
		// Cancelled while still queued: withdraw the task, and no worker
		// will ever touch it. A worker already running it aborts at the
		// pipeline's next poll boundary; wait for that, so the job is
		// never read after Run returns.
		if !t.claimed.CompareAndSwap(false, true) {
			<-t.out
		}
		return WindowResult{}, ctx.Err()
	}
}

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
func (s *Scheduler) worker() {
	defer s.wg.Done()
	sl := new(slot)
	defer sl.release()
	for t := range s.queue {
		if !t.claimed.CompareAndSwap(false, true) {
			// Withdrawn before starting (a misspeculated or cancelled
			// window): skip the work entirely. Its owner has stopped
			// listening, so no result is owed.
			continue
		}
		res, err := sl.run(t.ctx, t.job)
		t.out <- outcome{res: res, err: err}
	}
}
