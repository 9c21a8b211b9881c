package sample

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rix/internal/pipeline"
	"rix/internal/prog"
)

// TestSubmitAfterCloseIsError forces the shutdown interleaving that used
// to panic with "send on closed channel": a window reaching the pool
// after its owner closed it. It must fail with ErrSchedulerClosed.
func TestSubmitAfterCloseIsError(t *testing.T) {
	sched := NewScheduler(1)
	sched.Close()
	_, err := sched.Run(context.Background(), WindowJob{})
	if !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Run after Close = %v, want ErrSchedulerClosed", err)
	}
}

// TestCancelledRunSkipsSubmit pins the ordering in Scheduler.Run: a
// job whose context is already cancelled returns its context error
// without touching the pool, closed or not.
func TestCancelledRunSkipsSubmit(t *testing.T) {
	sched := NewScheduler(1)
	sched.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sched.Run(ctx, WindowJob{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
}

// lingerExecutor fails window 0 at once; every other window waits for
// its cancellation and then lingers before returning, so a coordinator
// that does not join its executor goroutines returns while they run.
type lingerExecutor struct {
	width            int
	started, stopped atomic.Int32
}

func (x *lingerExecutor) Width() int { return x.width }

func (x *lingerExecutor) Run(ctx context.Context, job WindowJob) (WindowResult, error) {
	x.started.Add(1)
	defer x.stopped.Add(1)
	if job.Boundary.Index == 0 {
		return WindowResult{}, errors.New("window 0 fails")
	}
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	return WindowResult{}, ctx.Err()
}

// TestRunParallelJoinsWindows: when a run ends early (here: its first
// window fails while the rest are in flight), runParallel must not
// return until every executor goroutine it started has returned.
func TestRunParallelJoinsWindows(t *testing.T) {
	const width = 4
	set := &WarmSet{Boundaries: make([]Boundary, 2*width)}
	for i := range set.Boundaries {
		set.Boundaries[i].Index = i
	}
	x := &lingerExecutor{width: width}
	p := &prog.Program{Name: "linger"}
	sc := Config{Scheduler: x}
	_, err := runParallel(context.Background(), p, pipeline.Config{}, sc, &source{set: set, p: p, sc: &sc})
	if err == nil {
		t.Fatal("runParallel succeeded; want window 0's error")
	}
	if s, d := x.started.Load(), x.stopped.Load(); s != width || d != width {
		t.Fatalf("at return: %d windows started, %d returned; want all %d joined", s, d, width)
	}
}
