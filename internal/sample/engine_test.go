package sample_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"rix/internal/pipeline"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/testutil"
	"rix/internal/workload"
)

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/golden/sampled_oracle.json from NaiveRun")

// TestOracleGolden pins the committed naive-loop estimates that tests
// outside this package (the root benchmarks, procexec) compare the
// engine against: NaiveRun must still produce them byte for byte.
func TestOracleGolden(t *testing.T) {
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	ests := map[string]*sample.Estimate{}
	for _, name := range []string{"gzip", "crafty"} {
		bw := buildBench(t, name)
		if ests[name], err = sample.NaiveRun(context.Background(), bw.Prog, bw.DynLen, cfg, sample.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if *updateOracle {
		data, err := json.MarshalIndent(ests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../../testdata/golden/sampled_oracle.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, est := range ests {
		testutil.MatchOracle(t, name, est)
	}
}

// TestRingStaysBounded: the live warm pass holds at most one ring entry
// per window in flight, however many windows the run has — on mcf's 33
// windows, never more than 2 at width 1 or 5 at width 4 — and the
// estimate still equals the naive loop's.
func TestRingStaysBounded(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "mcf")
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Windows) != 33 {
		t.Fatalf("mcf has %d windows; the bound below assumes 33", len(want.Windows))
	}
	for _, c := range []struct{ width, max int }{{1, 2}, {4, 5}} {
		est, ring, err := sample.RunRing(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: newPool(t, c.width)})
		if err != nil {
			t.Fatal(err)
		}
		if ring < 1 || ring > c.max {
			t.Errorf("width %d: the ring grew to %d entries; want 1..%d", c.width, ring, c.max)
		}
		if !reflect.DeepEqual(est, want) {
			t.Errorf("width %d: estimate diverges from the naive loop", c.width)
		}
	}
}

// TestWarmPartsPooledAcrossCells runs {gzip, crafty} × {none,
// +reverse/lisp} twice, the cells interleaved, on one scheduler: every
// estimate equals the naive loop's, and the second pass builds no warm
// part sets — its warmers, ring entries and slots all reuse the first
// pass's through the pool, reset to cold or refilled by delta copy. Not
// parallel: the pool and its counter are process-wide.
func TestWarmPartsPooledAcrossCells(t *testing.T) {
	ctx := context.Background()
	type cell struct {
		bw   workload.Built
		cfg  pipeline.Config
		want *sample.Estimate
	}
	var cells []cell
	for _, name := range []string{"gzip", "crafty"} {
		bw := buildBench(t, name)
		for _, o := range []sim.Options{{Integration: sim.IntNone}, {Integration: sim.IntReverse, Suppression: sim.SuppressLISP}} {
			cfg, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{bw, cfg, want})
		}
	}
	sched := newPool(t, 2)
	var built [2]int64
	for pass := range built {
		before := sample.WarmPartsBuilt()
		for _, c := range cells {
			got, err := sample.Run(ctx, c.bw.Prog, c.bw.DynLen, c.cfg, sample.Config{Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("pass %d, %s: estimate diverges from the naive loop", pass, c.bw.Prog.Name)
			}
		}
		built[pass] = sample.WarmPartsBuilt() - before
	}
	if built[1] != 0 {
		t.Errorf("the second pass built %d warm part sets (the first %d); want 0", built[1], built[0])
	}
}

// TestNonChainingWindowsBootOnEntries runs base and oracle-suppression
// cells — which chain no feedback, so no window of theirs can be
// discarded — at width 2: every window boots on its ring entry's tables,
// none copies them into its slot's set, and every estimate equals the
// naive loop's. A LISP cell, whose speculative windows must leave the
// entry pristine, does copy.
func TestNonChainingWindowsBootOnEntries(t *testing.T) {
	ctx := context.Background()
	sched := newPool(t, 2)
	for _, name := range []string{"gzip", "crafty"} {
		bw := buildBench(t, name)
		for _, o := range []sim.Options{
			{Integration: sim.IntNone},
			{Integration: sim.IntReverse, Suppression: sim.SuppressOracle},
			{Integration: sim.IntReverse, Suppression: sim.SuppressLISP},
		} {
			cfg, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
			if err != nil {
				t.Fatal(err)
			}
			before := sample.BootCopies()
			got, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: estimate diverges from the naive loop", name, o.Label())
			}
			copies := sample.BootCopies() - before
			if chains := cfg.Policy.UseLISP; chains != (copies > 0) {
				t.Errorf("%s/%s: %d boot copies", name, o.Label(), copies)
			}
		}
	}
}

// TestSlotRecyclesAcrossPolicies runs gzip's cells on a one-slot
// scheduler, twice over, alternating squash-only and general register
// files and PC and opcode IT indexing, with and without the LISP: the
// slot's one pipeline scratch carries its integration table and
// register file from window to window and from cell to cell, and every
// estimate still equals the naive loop's, which builds both afresh for
// every window.
func TestSlotRecyclesAcrossPolicies(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	type cell struct {
		cfg  pipeline.Config
		want *sample.Estimate
	}
	var cells []cell
	for _, o := range []sim.Options{
		{Integration: sim.IntSquash},
		{Integration: sim.IntOpcode, Suppression: sim.SuppressOracle},
		{Integration: sim.IntGeneral},
		{Integration: sim.IntReverse, Suppression: sim.SuppressNone},
		{Integration: sim.IntSquash, Suppression: sim.SuppressOracle},
		{Integration: sim.IntReverse},
	} {
		cfg, err := o.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sample.NaiveRun(ctx, bw.Prog, bw.DynLen, cfg, sample.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{cfg, want})
	}
	sched := newPool(t, 1)
	for pass := 0; pass < 2; pass++ {
		for i, c := range cells {
			got, err := sample.Run(ctx, bw.Prog, bw.DynLen, c.cfg, sample.Config{Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("pass %d, cell %d (%+v): estimate diverges from the naive loop", pass, i, c.cfg.Policy)
			}
		}
	}
}

// TestEngineMatchesNaiveLoop is the engine's property test: on every
// registered workload (the benchmark subset under -short, gzip and
// crafty under -race), with integration off and with +reverse under the
// LISP, at widths 1, 2 and 4, the Estimate and every checkpoint equal
// the naive sequential loop's. Each case also cancels a checkpointing
// run at a seeded random instruction and finishes it with Continue,
// which must land on the same estimate and checkpoints. Checkpoints are
// compared decoded: gob's map encoding orders a memory image's pages
// differently from one write to the next.
func TestEngineMatchesNaiveLoop(t *testing.T) {
	bg := context.Background()
	rng := rand.New(rand.NewSource(17))
	names := workload.Names()
	switch {
	case raceEnabled:
		names = []string{"gzip", "crafty"}
	case testing.Short():
		names = benchSubset
	}
	for _, o := range []sim.Options{{Integration: sim.IntNone}, {Integration: sim.IntReverse, Suppression: sim.SuppressLISP}} {
		cfg, err := o.Config()
		if err != nil {
			t.Fatal(err)
		}
		for k, name := range names {
			cancelAt := rng.Int63()
			width := []int{1, 2, 4}[k%3]
			t.Run(fmt.Sprintf("%s/%s", name, o.Label()), func(t *testing.T) {
				t.Parallel()
				bw := buildBench(t, name)
				oracleDir := t.TempDir()
				want, err := sample.NaiveRun(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: oracleDir})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 4} {
					dir := t.TempDir()
					got, err := sample.Run(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir, Scheduler: newPool(t, w)})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("width %d: estimate diverges from the naive loop", w)
					}
					sameCheckpoints(t, fmt.Sprintf("width %d", w), bw.Prog.Name, oracleDir, dir)
				}

				// Cancel somewhere in the trace, then finish with Continue.
				at := uint64(cancelAt % int64(bw.DynLen))
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				sc := sample.Config{CheckpointDir: dir, Scheduler: newPool(t, width)}
				sc.Hooks.Progress = func(n uint64) {
					if n >= at {
						cancel()
					}
				}
				if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc); err != nil && err != context.Canceled {
					t.Fatalf("cancelled at %d: %v", at, err)
				}
				got, err := sample.Continue(bg, bw.Prog, bw.DynLen, cfg, sample.Config{CheckpointDir: dir, Scheduler: newPool(t, width)})
				if err != nil {
					t.Fatalf("continue after a cancel at %d: %v", at, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cancelled at %d, continued at width %d: estimate diverges from the naive loop", at, width)
				}
				sameCheckpoints(t, fmt.Sprintf("continued after %d", at), bw.Prog.Name, oracleDir, dir)
			})
		}
	}
}

// sameCheckpoints requires dir to hold the checkpoints want holds,
// decoding equal file by file.
func sameCheckpoints(t *testing.T, what, program, want, dir string) {
	t.Helper()
	a, err := sample.Checkpoints(want, program)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample.Checkpoints(dir, program)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%s: %d checkpoints, the naive loop wrote %d", what, len(b), len(a))
	}
	for i := range a {
		ca, err := sample.LoadCheckpoint(a[i])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := sample.LoadCheckpoint(b[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: checkpoint %d differs from the naive loop's", what, i)
		}
	}
}
