package run_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rix/internal/asm"
	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sample/procexec"
	"rix/internal/sim"
	"rix/internal/testutil"
	"rix/internal/workload"
)

func buildBench(t testing.TB, name string) workload.Built {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return bw
}

func TestRequestValidation(t *testing.T) {
	sp := sample.DefaultSampling()
	cases := []struct {
		name string
		req  run.Request
		want string // error substring; "" = valid
	}{
		{"no program", run.Request{}, "exactly one"},
		{"both programs", run.Request{Workload: "gzip", Source: "x"}, "exactly one"},
		{"bad axis", run.Request{Workload: "gzip", Options: sim.Options{Integration: "warp"}}, "unknown integration"},
		{"bad sampling", run.Request{Workload: "gzip",
			Options: sim.Options{Sampling: &sample.Sampling{Interval: 10, Window: 20}}}, "exceeds interval"},
		{"resume without sampling", run.Request{Workload: "gzip", Resume: true, CheckpointDir: "/tmp/x"}, "needs Options.Sampling"},
		{"resume without dir", run.Request{Workload: "gzip", Resume: true,
			Options: sim.Options{Sampling: &sp}}, "needs CheckpointDir"},
		{"ckpt without sampling", run.Request{Workload: "gzip", CheckpointDir: "/tmp/x"}, "only meaningful for sampled"},
		{"worker dir without sampling", run.Request{Workload: "gzip", WorkerDir: "/tmp/x"}, "only meaningful for sampled"},
		{"valid worker dir with resume", run.Request{Workload: "gzip", Resume: true, CheckpointDir: "/tmp/x",
			Options: sim.Options{Sampling: &sp}, WorkerDir: "/tmp/x"}, ""},
		{"valid detail", run.Request{Workload: "gzip", Options: sim.Options{Integration: sim.IntReverse}}, ""},
		{"valid sampled", run.Request{Workload: "gzip", Options: sim.Options{Sampling: &sp}}, ""},
		{"valid worker dir", run.Request{Workload: "gzip", Options: sim.Options{Sampling: &sp},
			WorkerDir: "/tmp/x"}, ""},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestRequestJSONRoundTrip: a request survives marshal/unmarshal with
// every field intact — the serializable-run contract.
func TestRequestJSONRoundTrip(t *testing.T) {
	sp := sample.Sampling{Interval: 20000, Window: 800, Warmup: 400}
	req := &run.Request{
		Workload: "crafty",
		Label:    "paper-full",
		Options: sim.Options{
			Integration: sim.IntReverse,
			Suppression: sim.SuppressOracle,
			Core:        sim.CoreIWRS,
			ITEntries:   512,
			ITAssoc:     -1,
			GenBits:     3,
			Sampling:    &sp,
		},
		CheckpointDir: "/tmp/ck",
		Jobs:          4,
		MaxInstrs:     1 << 22,
		WorkerDir:     "/tmp/wd",
	}
	data, err := run.MarshalRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := run.UnmarshalRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("request did not round-trip:\nsent: %+v\ngot:  %+v", req, back)
	}
	if back.Mode() != run.ModeSampled {
		t.Errorf("mode = %s, want sampled", back.Mode())
	}
	// UnmarshalRequest validates eagerly.
	if _, err := run.UnmarshalRequest([]byte(`{"workload":"x","options":{"integration":"warp"}}`)); err == nil {
		t.Error("UnmarshalRequest accepted an invalid request")
	}
	// A misspelled key must fail loudly, not silently change the run.
	if _, err := run.UnmarshalRequest([]byte(`{"workload":"x","checkpoint-dir":"/tmp/ck"}`)); err == nil {
		t.Error("UnmarshalRequest accepted an unknown field (typo'd key)")
	}
	// Stored requests carrying removed knobs (the warm-shard ones, the
	// executor name WorkerDir replaced, and the warm-cache size/age
	// bounds) must fail naming the field, not run with the knob silently
	// dropped.
	for _, field := range []string{"warm_jobs", "warm_stride", "executor", "cache_max_mb", "cache_max_age_sec"} {
		js := `{"workload":"gzip","options":{"sampling":{"interval":20000,"window":800,"warmup":400}},"` + field + `":4}`
		if _, err := run.UnmarshalRequest([]byte(js)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("request with %q: err = %v, want an error naming the field", field, err)
		}
	}
}

// TestDoDetailMatchesPipeline: the entry point reproduces a directly
// constructed pipeline's statistics exactly for a full-detail run, and
// the Result round-trips through JSON.
func TestDoDetailMatchesPipeline(t *testing.T) {
	testutil.NoLeaks(t)
	bw := buildBench(t, "gzip")
	o := sim.Options{Integration: sim.IntReverse}

	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.New(cfg, bw.Prog, bw.Source()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Do(context.Background(), run.Request{Workload: "gzip", Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, *want) {
		t.Errorf("run.Do stats differ from direct pipeline:\nDo:       %+v\npipeline: %+v", res.Stats, *want)
	}
	if res.Mode != run.ModeDetail || res.Workload != "gzip" || res.Label != o.Label() {
		t.Errorf("result identity: %+v", res)
	}
	if res.DynLen != bw.DynLen {
		t.Errorf("DynLen = %d, want %d", res.DynLen, bw.DynLen)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back run.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("result did not round-trip:\nsent: %+v\ngot:  %+v", *res, back)
	}
}

// TestDoSampledMatchesEngine: ModeSampled routes through the sampling
// engine and reports the same aggregate the engine does, with the
// window summaries attached; the Result round-trips through JSON.
func TestDoSampledMatchesEngine(t *testing.T) {
	testutil.NoLeaks(t)
	bw := buildBench(t, "gzip")
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}

	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.Run(context.Background(), bw.Prog, bw.DynLen, cfg, sample.Config{Sampling: sp})
	if err != nil {
		t.Fatal(err)
	}
	want := &est.Agg
	res, err := run.Do(context.Background(), run.Request{Workload: "gzip", Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, *want) {
		t.Errorf("sampled aggregate differs:\nDo:   %+v\nshim: %+v", res.Stats, *want)
	}
	if res.Mode != run.ModeSampled || res.Sampled == nil || len(res.Sampled.Windows) == 0 {
		t.Fatalf("sampled result shape: %+v", res)
	}
	// The run API's summary and the engine's share sample.Summary; the
	// engine's adds only its historical trailing newline.
	if got, want := res.Sampled.String(), est.String(); got+"\n" != want {
		t.Errorf("Result.Sampled.String() = %q; want Estimate.String() without its newline, %q", got, want)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back run.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("sampled result did not round-trip")
	}
}

// eventLog is a concurrency-safe observer recording event kinds.
type eventLog struct {
	mu     sync.Mutex
	events []run.Event
}

func (l *eventLog) Observe(e run.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) kinds() map[run.EventKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[run.EventKind]int{}
	for _, e := range l.events {
		m[e.Kind]++
	}
	return m
}

// TestObserverEventStream: a sampled checkpointing run emits the full
// typed event vocabulary in a sane shape.
func TestObserverEventStream(t *testing.T) {
	testutil.NoLeaks(t)
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}
	log := &eventLog{}
	res, err := run.Do(context.Background(),
		run.Request{Workload: "gzip", Options: o, CheckpointDir: t.TempDir()},
		run.WithObserver(log), run.WithProgressEvery(4096))
	if err != nil {
		t.Fatal(err)
	}
	k := log.kinds()
	if k[run.CellStarted] != 1 || k[run.CellFinished] != 1 {
		t.Errorf("cell lifecycle events: %v", k)
	}
	if k[run.Progress] == 0 {
		t.Errorf("no progress events (cadence 4096): %v", k)
	}
	if got, want := k[run.WindowDone], len(res.Sampled.Windows); got != want {
		t.Errorf("%d window-done events for %d windows", got, want)
	}
	if k[run.CheckpointWritten] == 0 {
		t.Errorf("no checkpoint events despite CheckpointDir: %v", k)
	}
	log.mu.Lock()
	first, last := log.events[0], log.events[len(log.events)-1]
	log.mu.Unlock()
	if first.Kind != run.CellStarted || last.Kind != run.CellFinished {
		t.Errorf("event order: first %s, last %s", first.Kind, last.Kind)
	}
	if first.Workload != "gzip" || first.Label != o.Label() || first.Mode != run.ModeSampled {
		t.Errorf("event identity: %+v", first)
	}
}

// TestCellEventSequenceDeterministic: two sampled cells sharing one
// two-slot scheduler each see the same full event sequence — kind,
// window and instruction count, in order — on every run. Every event
// of an in-process run fires from the goroutine that called Do, so how
// the pool's workers interleave the cells' windows never shows.
func TestCellEventSequenceDeterministic(t *testing.T) {
	testutil.NoLeaks(t)
	type step struct {
		Kind   run.EventKind
		Window int
		Instrs uint64
	}
	benches := []string{"gzip", "crafty"}
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}
	cells := func() [][]step {
		sched := sample.NewScheduler(2)
		defer sched.Close()
		seqs := make([][]step, len(benches))
		errs := make([]error, len(benches))
		var wg sync.WaitGroup
		for i, name := range benches {
			obs := run.ObserverFunc(func(e run.Event) {
				seqs[i] = append(seqs[i], step{e.Kind, e.Window, e.Instrs})
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = run.Do(context.Background(), run.Request{Workload: name, Options: o},
					run.WithObserver(obs), run.WithScheduler(sched), run.WithProgressEvery(4096))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", benches[i], err)
			}
		}
		return seqs
	}
	first, second := cells(), cells()
	for i, name := range benches {
		kinds := map[run.EventKind]int{}
		for _, s := range first[i] {
			kinds[s.Kind]++
		}
		for _, k := range []run.EventKind{run.CellStarted, run.Progress, run.WindowScheduled, run.WindowDone, run.SlotReturned, run.CellFinished} {
			if kinds[k] == 0 {
				t.Errorf("%s: no %s events: %v", name, k, kinds)
			}
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("%s: event sequence differs between runs (%d vs %d events)", name, len(first[i]), len(second[i]))
		}
	}
}

// TestDoCrossProcess: a WorkerDir request reproduces the plain sampled
// run's statistics exactly while executing its windows on worker loops
// over the shared directory, and the observer sees the cross-process
// event vocabulary (worker-joined, lease-claimed, result-collected).
func TestDoCrossProcess(t *testing.T) {
	testutil.NoLeaks(t)
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}

	want, err := run.Do(context.Background(), run.Request{Workload: "gzip", Options: o})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	wctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			procexec.Work(wctx, dir, procexec.WorkerConfig{Poll: 2 * time.Millisecond}) //nolint:errcheck
		}()
	}
	defer func() { stop(); wg.Wait() }()

	log := &eventLog{}
	res, err := run.Do(context.Background(),
		run.Request{Workload: "gzip", Options: o, WorkerDir: dir},
		run.WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, want.Stats) {
		t.Errorf("cross-process aggregate differs from in-process:\nproc: %+v\npool: %+v", res.Stats, want.Stats)
	}
	if !reflect.DeepEqual(res.Sampled.Windows, want.Sampled.Windows) {
		t.Error("cross-process window summaries differ from in-process")
	}
	k := log.kinds()
	if k[run.WorkerJoined] == 0 || k[run.LeaseClaimed] == 0 || k[run.ResultCollected] == 0 {
		t.Errorf("missing cross-process events: %v", k)
	}
	if got, want := k[run.ResultCollected], len(res.Sampled.Windows); got != want {
		t.Errorf("%d result-collected events for %d settled windows", got, want)
	}
}

// TestDetailCancellation: cancelling a detailed run mid-flight returns
// ctx.Err() promptly and leaks no goroutines; a pre-cancelled context
// never starts simulating.
func TestDetailCancellation(t *testing.T) {
	testutil.NoLeaks(t)
	o := sim.Options{Integration: sim.IntReverse}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := run.Do(pre, run.Request{Workload: "crafty", Options: o}); err != context.Canceled {
		t.Fatalf("pre-cancelled Do returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("pre-cancelled Do took %v", d)
	}

	// Mid-run: cancel at the first progress event, i.e. from inside the
	// simulation itself — deterministic, no timing dependence.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var once sync.Once
	obs := run.ObserverFunc(func(e run.Event) {
		if e.Kind == run.Progress {
			once.Do(cancel2)
		}
	})
	_, err := run.Do(ctx, run.Request{Workload: "crafty", Options: o},
		run.WithObserver(obs), run.WithProgressEvery(2048))
	if err != context.Canceled {
		t.Fatalf("mid-run cancelled Do returned %v, want context.Canceled", err)
	}
}

// TestSampledCancellationAndResume: cancelling a sampled checkpointing
// run mid-flight leaves a resumable directory; a ModeResume request
// finishes it and reproduces the uninterrupted run's stats bit-for-bit
// (the engine-level equivalent is TestContinueCancelledRunBitEqual in
// internal/sample).
func TestSampledCancellationAndResume(t *testing.T) {
	testutil.NoLeaks(t)
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}

	uninterrupted, err := run.Do(context.Background(), run.Request{Workload: "gzip", Options: o})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := run.ObserverFunc(func(e run.Event) {
		if e.Kind == run.WindowDone && e.Window == 1 {
			cancel()
		}
	})
	_, err = run.Do(ctx, run.Request{Workload: "gzip", Options: o, CheckpointDir: dir},
		run.WithObserver(obs))
	if err != context.Canceled {
		t.Fatalf("cancelled sampled Do returned %v, want context.Canceled", err)
	}

	resumeLog := &eventLog{}
	resumed, err := run.Do(context.Background(),
		run.Request{Workload: "gzip", Options: o, CheckpointDir: dir, Resume: true, Jobs: 4},
		run.WithObserver(resumeLog))
	if err != nil {
		t.Fatal(err)
	}
	// The resume must report every measured window — the prefix re-run
	// from disk as well as the resumed warm pass's windows.
	if got, want := resumeLog.kinds()[run.WindowDone], len(resumed.Sampled.Windows); got != want {
		t.Errorf("resume emitted %d window-done events for %d windows", got, want)
	}
	if !reflect.DeepEqual(resumed.Stats, uninterrupted.Stats) {
		t.Errorf("resumed aggregate differs from uninterrupted:\nresumed:       %+v\nuninterrupted: %+v",
			resumed.Stats, uninterrupted.Stats)
	}
	if !reflect.DeepEqual(resumed.Sampled, uninterrupted.Sampled) {
		t.Errorf("resumed window summaries differ from uninterrupted")
	}
	if resumed.Mode != run.ModeResume {
		t.Errorf("mode = %s, want resume", resumed.Mode)
	}
}

// TestResumeTwoPhaseBitEqual: a two-slot run (Jobs: 2) cancelled with
// windows in flight leaves provisional checkpoints carrying the warm
// pass's LISP; a Resume request on a two-slot pool must still reproduce
// the uninterrupted run's aggregate and windows.
func TestResumeTwoPhaseBitEqual(t *testing.T) {
	testutil.NoLeaks(t)
	sp := sample.DefaultSampling()
	o := sim.Options{Integration: sim.IntReverse, Sampling: &sp}
	uninterrupted, err := run.Do(context.Background(), run.Request{Workload: "crafty", Options: o})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := run.ObserverFunc(func(e run.Event) {
		if e.Kind == run.WindowDone && e.Window == 1 {
			cancel()
		}
	})
	_, err = run.Do(ctx, run.Request{Workload: "crafty", Options: o, CheckpointDir: dir, Jobs: 2},
		run.WithObserver(obs))
	if err != context.Canceled {
		t.Fatalf("cancelled two-slot Do returned %v, want context.Canceled", err)
	}

	resumed, err := run.Do(context.Background(),
		run.Request{Workload: "crafty", Options: o, CheckpointDir: dir, Resume: true, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Stats, uninterrupted.Stats) {
		t.Errorf("resumed aggregate differs from uninterrupted:\nresumed:       %+v\nuninterrupted: %+v",
			resumed.Stats, uninterrupted.Stats)
	}
	if !reflect.DeepEqual(resumed.Sampled.Windows, uninterrupted.Sampled.Windows) {
		t.Errorf("resumed window summaries differ from uninterrupted")
	}
}

// TestInlineSource: an inline-assembly request assembles and runs.
func TestInlineSource(t *testing.T) {
	testutil.NoLeaks(t)
	const src = `
        .text
main:   addqi t0, zero, 5
loop:   addqi t0, t0, -1
        bne   t0, loop
        clr   v0
        syscall
`
	res, err := run.Do(context.Background(),
		run.Request{Source: src, SourceName: "tiny.s", Options: sim.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retired == 0 {
		t.Error("inline program retired nothing")
	}
	if res.Workload != "tiny.s" {
		t.Errorf("workload name = %q", res.Workload)
	}
}

// TestInlineSourceSampled: a sampled inline-assembly request (rixsim
// -file x.s -sample default) has no validated dynamic length, so its
// estimate scales by the live warm pass's count, which must be the
// program's emulated length.
func TestInlineSourceSampled(t *testing.T) {
	testutil.NoLeaks(t)
	const src = `
        .text
main:   addqi t0, zero, 20000
        clr   t1
loop:   addq  t1, t1, t0
        xor   t2, t1, t0
        addqi t0, t0, -1
        bne   t0, loop
        clr   v0
        syscall
`
	p, err := asm.Assemble("loop.s", src)
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	if err := e.Run(workload.MaxInstrs); err != nil || !e.Halted {
		t.Fatalf("emulate: halted %v, %v", e.Halted, err)
	}
	sp := sample.DefaultSampling()
	res, err := run.Do(context.Background(), run.Request{Source: src, SourceName: "loop.s",
		Options: sim.Options{Integration: sim.IntReverse, Sampling: &sp}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DynLen != 0 || res.Sampled == nil {
		t.Fatalf("inline sampled result: DynLen %d, Sampled %v; want 0 and an estimate", res.DynLen, res.Sampled)
	}
	if got := res.Sampled.TotalInstrs; got != e.Count {
		t.Errorf("Sampled.TotalInstrs = %d; want the emulated length %d", got, e.Count)
	}
	if n := len(res.Sampled.Windows); n < 4 {
		t.Errorf("%d windows over %d instructions; want at least 4", n, e.Count)
	}
}
