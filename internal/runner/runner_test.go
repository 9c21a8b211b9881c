package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
	"rix/internal/run"
	"rix/internal/sim"
	"rix/internal/stats"
	"rix/internal/workload"
)

var bg = context.Background()

// testSource builds a counting workload source: every build returns a
// program carrying its name, and buildCount records how often each name
// was actually built (memoization should pin this at one).
func testSource(counts *sync.Map) *workload.Builder {
	return workload.NewBuilderFunc(func(ctx context.Context, name string) (workload.Built, error) {
		if v, _ := counts.LoadOrStore(name, new(int64)); true {
			atomic.AddInt64(v.(*int64), 1)
		}
		time.Sleep(time.Millisecond) // widen the double-build race window
		return workload.BuiltFromTrace(&prog.Program{Name: name}, make([]emu.TraceRec, 100)), nil
	})
}

// testEngine wires a stub simulator that tags each result with a value
// derived from (workload, IT entries), so collectors can verify they
// received the right cell regardless of completion order.
func testEngine(names []string, counts *sync.Map) *Engine {
	e := NewEngineWith(names, testSource(counts))
	e.simulate = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
		// Finish later cells sooner to scramble completion order.
		time.Sleep(time.Duration(5000/cfg.IT.Entries) * time.Microsecond)
		return &pipeline.Stats{Retired: cellRetired(p.Name, cfg.IT.Entries)}, nil
	}
	return e
}

func cellRetired(bench string, entries int) uint64 {
	h := uint64(entries)
	for _, c := range bench {
		h = h*131 + uint64(c)
	}
	return h
}

func sizedSpec(id string, entries ...int) Spec {
	s := Spec{ID: id}
	for _, n := range entries {
		s.Configs = append(s.Configs, Config{
			Label: fmt.Sprintf("it%d", n),
			Opt:   sim.Options{ITEntries: n},
		})
	}
	return s
}

func TestRegisterValidation(t *testing.T) {
	collect := func(rs *ResultSet) ([]*stats.Table, error) { return nil, nil }
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty id", Spec{Collect: collect, Configs: []Config{{}}}, "empty id"},
		{"no configs", Spec{ID: "t-none", Collect: collect}, "no configs"},
		{"duplicate label", Spec{ID: "t-dup-label", Collect: collect,
			Configs: []Config{{Label: "x"}, {Label: "x"}}}, "duplicate config label"},
		{"unknown integration axis", Spec{ID: "t-axis", Collect: collect,
			Configs: []Config{{Opt: sim.Options{Integration: "warp"}}}}, "unknown integration"},
		{"unknown core axis", Spec{ID: "t-core", Collect: collect,
			Configs: []Config{{Opt: sim.Options{Core: "hyper"}}}}, "unknown core"},
		{"no collector", Spec{ID: "t-nocollect", Configs: []Config{{}}}, "no collector"},
	}
	for _, c := range cases {
		if err := Register(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}

	// Unique id per run: the registry is process-global, so a fixed id
	// would collide under go test -count=N.
	goodID := fmt.Sprintf("t-good-%d", time.Now().UnixNano())
	good := Spec{ID: goodID, Description: "test spec", Collect: collect,
		Configs: []Config{{Opt: sim.Options{Integration: sim.IntReverse}}}}
	if err := Register(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := Register(good); err == nil || !strings.Contains(err.Error(), "duplicate spec") {
		t.Errorf("duplicate id accepted: %v", err)
	}
	s, ok := Lookup(goodID)
	if !ok {
		t.Fatal("registered spec not found")
	}
	// The empty label must have defaulted to the canonical option label.
	if s.Configs[0].Label != "+reverse/lisp" {
		t.Errorf("defaulted label = %q, want %q", s.Configs[0].Label, "+reverse/lisp")
	}
	found := false
	for _, id := range IDs() {
		if id == goodID {
			found = true
		}
	}
	if !found {
		t.Errorf("IDs() = %v missing %s", IDs(), goodID)
	}
}

func TestUnknownSpecAndWorkload(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a"}, &counts)
	if _, err := e.RunSuite(bg, "t-nope", nil); err == nil || !strings.Contains(err.Error(), "unknown spec") {
		t.Errorf("RunSuite unknown: %v", err)
	}
	if _, err := NewEngine([]string{"not-a-benchmark"}); err == nil {
		t.Error("NewEngine accepted unregistered workload")
	}
	if e, err := NewEngine(nil); err != nil || len(e.Names()) != len(workload.Names()) {
		t.Errorf("NewEngine(nil): %v, names=%d", err, len(e.Names()))
	}
}

func TestLazyMemoizedBuilds(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	var counts sync.Map
	e := testEngine(names, &counts)

	// Creation must not build anything.
	built := 0
	counts.Range(func(_, _ any) bool { built++; return true })
	if built != 0 {
		t.Fatalf("engine built %d workloads eagerly", built)
	}

	// Hammer the engine from several goroutines: overlapping specs,
	// whole matrices and one-cell ones, all wanting the same workloads.
	spec := sizedSpec("t-lazy", 64, 128, 256)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if _, err := e.Gather(bg, &spec); err != nil {
					t.Error(err)
				}
			default:
				b := names[i%3]
				one := sizedSpec("t-lazy-one", 64)
				one.Benchmarks = []string{b}
				rs, err := e.Gather(bg, &one)
				if err != nil {
					t.Error(err)
				} else if st := rs.Get(b, "it64"); st == nil || st.Retired != cellRetired(b, 64) {
					t.Errorf("one-cell spec over %s: got %+v", b, st)
				}
			}
		}(i)
	}
	wg.Wait()

	for _, n := range names {
		v, ok := counts.Load(n)
		if !ok {
			t.Errorf("workload %s never built", n)
			continue
		}
		if got := atomic.LoadInt64(v.(*int64)); got != 1 {
			t.Errorf("workload %s built %d times, want exactly 1", n, got)
		}
	}
}

func TestWorkerPoolBound(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a", "b", "c", "d", "e"}, &counts)
	e.Parallel = 3

	var inflight, peak int64
	e.simulate = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
		n := atomic.AddInt64(&inflight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if n <= old || atomic.CompareAndSwapInt64(&peak, old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inflight, -1)
		return &pipeline.Stats{}, nil
	}

	spec := sizedSpec("t-pool", 64, 128, 256, 512, 1024, 2048)
	cells := 0
	if err := e.Stream(bg, &spec, func(r Result) error { cells++; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := 5 * 6; cells != want {
		t.Errorf("streamed %d cells, want %d", cells, want)
	}
	if p := atomic.LoadInt64(&peak); p > 3 {
		t.Errorf("peak concurrency %d exceeds Parallel=3", p)
	}
}

func TestDeterministicCollectorOrdering(t *testing.T) {
	names := []string{"zeta", "alpha", "mid"}
	var counts sync.Map
	e := testEngine(names, &counts)

	spec := sizedSpec("t-order", 1024, 64, 256) // label order != completion order
	for trial := 0; trial < 3; trial++ {
		rs, err := e.Gather(bg, &spec)
		if err != nil {
			t.Fatal(err)
		}
		// Bench order follows the engine, label order follows the spec —
		// not completion order.
		if got := strings.Join(rs.Benches(), ","); got != "zeta,alpha,mid" {
			t.Fatalf("bench order %q", got)
		}
		if got := strings.Join(rs.Labels(), ","); got != "it1024,it64,it256" {
			t.Fatalf("label order %q", got)
		}
		// Every cell must hold exactly the stats its (bench, label) key
		// claims, no matter which goroutine finished first.
		for _, b := range rs.Benches() {
			for _, entries := range []int{1024, 64, 256} {
				label := fmt.Sprintf("it%d", entries)
				if got := rs.Get(b, label).Retired; got != cellRetired(b, entries) {
					t.Errorf("trial %d: cell (%s,%s) = %d, want %d",
						trial, b, label, got, cellRetired(b, entries))
				}
			}
		}
	}
}

func TestStreamErrorPropagation(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a", "b"}, &counts)
	e.simulate = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
		if p.Name == "b" && cfg.IT.Entries == 128 {
			return nil, fmt.Errorf("boom")
		}
		return &pipeline.Stats{}, nil
	}
	spec := sizedSpec("t-err", 64, 128)
	_, err := e.Gather(bg, &spec)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "b [it128]") {
		t.Errorf("error = %v, want cell-attributed boom", err)
	}
}

func TestStreamAbortsSchedulingOnError(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a"}, &counts)
	e.Parallel = 1
	var simulated int64
	e.simulate = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
		atomic.AddInt64(&simulated, 1)
		if cfg.IT.Entries == 64 { // the very first cell fails
			return nil, fmt.Errorf("boom")
		}
		time.Sleep(time.Millisecond)
		return &pipeline.Stats{}, nil
	}
	entries := make([]int, 100)
	for i := range entries {
		entries[i] = 64 + i
	}
	spec := sizedSpec("t-abort", entries...)
	if _, err := e.Gather(bg, &spec); err == nil {
		t.Fatal("expected error")
	}
	// A handful of cells may race past the stop signal, but the bulk of
	// the 100-cell plan must never have been scheduled.
	if n := atomic.LoadInt64(&simulated); n > 30 {
		t.Errorf("%d cells simulated after first-cell failure, want early abort", n)
	}
}

func TestAdHocSpecValidation(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a"}, &counts)
	dup := Spec{ID: "t-adhoc", Configs: []Config{{Label: "x"}, {Label: "x"}}}
	if _, err := e.Gather(bg, &dup); err == nil {
		t.Error("Gather accepted duplicate labels")
	}
	// Labels default without mutating the caller's spec.
	adhoc := Spec{ID: "t-default", Configs: []Config{{Opt: sim.Options{Integration: sim.IntSquash}}}}
	rs, err := e.Gather(bg, &adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Labels()[0]; got != "squash/lisp" {
		t.Errorf("defaulted label = %q", got)
	}
	if adhoc.Configs[0].Label != "" {
		t.Errorf("Gather mutated caller's spec: %q", adhoc.Configs[0].Label)
	}
}

// TestStreamCancellation: cancelling the context mid-matrix aborts
// scheduling, interrupts in-flight cells, surfaces the context error,
// and leaks no goroutine: every cell goroutine Stream started returns.
func TestStreamCancellation(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a", "b", "c"}, &counts)
	e.Parallel = 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simulated int64
	e.simulate = func(ctx context.Context, cfg pipeline.Config, p *prog.Program, src emu.TraceSource) (*pipeline.Stats, error) {
		if atomic.AddInt64(&simulated, 1) == 2 {
			cancel()
		}
		// Every cell honors ctx, as the real pipeline does at its poll
		// boundary.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
			return &pipeline.Stats{}, nil
		}
	}

	before := runtime.NumGoroutine()
	spec := sizedSpec("t-cancel", 64, 128, 256, 512, 1024, 2048)
	err := e.Stream(ctx, &spec, func(r Result) error { return nil })
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Stream returned %v, want a context.Canceled-wrapping error", err)
	}
	if n := atomic.LoadInt64(&simulated); n > 6 {
		t.Errorf("%d cells simulated after cancellation, want early abort", n)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak after cancelled Stream: %d before, %d after", before, n)
	}
}

// TestEngineObserverEvents: the engine forwards every cell's lifecycle
// events to its Observer.
func TestEngineObserverEvents(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a", "b"}, &counts)
	var mu sync.Mutex
	seen := map[run.EventKind]int{}
	e.Observer = run.ObserverFunc(func(ev run.Event) {
		mu.Lock()
		defer mu.Unlock()
		seen[ev.Kind]++
	})
	spec := sizedSpec("t-obs", 64, 128)
	if _, err := e.Gather(bg, &spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[run.CellStarted] != 4 || seen[run.CellFinished] != 4 {
		t.Errorf("cell events = %v, want 4 started / 4 finished", seen)
	}
}

func TestBenchesForSubset(t *testing.T) {
	var counts sync.Map
	e := testEngine([]string{"a", "b", "c"}, &counts)
	spec := sizedSpec("t-subset", 64)
	spec.Benchmarks = []string{"c", "nope", "a"} // spec order wins; unknowns drop
	rs, err := e.Gather(bg, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rs.Benches(), ","); got != "c,a" {
		t.Errorf("benches = %q, want \"c,a\"", got)
	}
}
