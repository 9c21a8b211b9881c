package sample_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rix/internal/emu"
	"rix/internal/sample"
	"rix/internal/sim"
)

// recordExecutor runs every window's Detached job on its pool, as an
// out-of-process executor would, and checks the detached
// boundary against the warm pass's own (want) while the job is still
// lent: the emulator state and warm tables must match, and the gob
// encoding byte for byte with the memory pages (a map, so encoded in
// no fixed order) aside.
type recordExecutor struct {
	pool *sample.Scheduler
	want *sample.WarmSet

	mu      sync.Mutex
	seen    map[int]bool
	jobs    int // jobs run
	changed int // jobs Detached changed
	errs    []error
}

func (x *recordExecutor) Width() int { return x.pool.Width() }

func (x *recordExecutor) Run(ctx context.Context, job sample.WindowJob) (sample.WindowResult, error) {
	d := job.Detached()
	err := x.check(d.Boundary)
	x.mu.Lock()
	x.seen[d.Boundary.Index] = true
	x.jobs++
	if !reflect.DeepEqual(d, job) {
		x.changed++
	}
	if err != nil {
		x.errs = append(x.errs, err)
	}
	x.mu.Unlock()
	return x.pool.Run(ctx, d)
}

func (x *recordExecutor) check(b sample.Boundary) error {
	if b.Index >= len(x.want.Boundaries) {
		return fmt.Errorf("window %d: the warm pass has only %d boundaries", b.Index, len(x.want.Boundaries))
	}
	w := x.want.Boundaries[b.Index]
	if !reflect.DeepEqual(b.Emu.Mem, w.Emu.Mem) {
		return fmt.Errorf("window %d: memory differs from the warm pass's boundary", b.Index)
	}
	got, err := encodeBoundary(b)
	if err != nil {
		return err
	}
	exp, err := encodeBoundary(w)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("window %d: detached boundary encodes differently from the warm pass's", b.Index)
	}
	return nil
}

func encodeBoundary(b sample.Boundary) ([]byte, error) {
	b.Emu.Mem = emu.MemState{}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(b)
	return buf.Bytes(), err
}

// TestDetachedJobs pins the executor contract: every job of a live warm
// pass borrows a ring entry's tables, checkpointing or not, and its
// Detached form is self-contained and equals the warm pass's boundary
// of the same index; and an executor that runs the detached jobs
// reproduces the in-process estimate.
func TestDetachedJobs(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: newPool(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			x := &recordExecutor{pool: newPool(t, 3), want: want, seen: map[int]bool{}}
			sc := sample.Config{Scheduler: x}
			if ckpt {
				sc.CheckpointDir = t.TempDir()
			}
			est, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range x.errs {
				t.Error(err)
			}
			if len(x.seen) != len(want.Boundaries) {
				t.Errorf("executor saw %d windows, want %d", len(x.seen), len(want.Boundaries))
			}
			if x.changed != x.jobs {
				t.Errorf("Detached changed %d of %d jobs lending ring entries, want all", x.changed, x.jobs)
			}
			if !reflect.DeepEqual(est.Agg, base.Agg) || !reflect.DeepEqual(est.Windows, base.Windows) {
				t.Error("estimate from detached jobs differs from the in-process pool's")
			}
		})
	}
}
