package rix

// Benchmark harness: one testing.B benchmark per paper table/figure, plus
// micro-benchmarks of the core mechanisms. The figure benchmarks run the
// same code paths as `rixbench` on a reduced workload subset so that
// `go test -bench=.` completes in minutes; run `rixbench -suite all` for
// the full-suite numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"rix/internal/core"
	"rix/internal/emu"
	_ "rix/internal/experiments" // registers the paper specs
	"rix/internal/isa"
	"rix/internal/memsys"
	"rix/internal/pipeline"
	"rix/internal/prog"
	"rix/internal/regfile"
	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/testutil"
	"rix/internal/workload"
)

// benchSubset keeps `go test -bench=.` affordable; one benchmark per
// workload class.
var benchSubset = []string{"gzip", "crafty", "vortex", "mcf"}

var (
	cacheOnce sync.Once
	benchC    *runner.Engine
)

func benchCache(b *testing.B) *runner.Engine {
	b.Helper()
	cacheOnce.Do(func() {
		c, err := runner.NewEngine(benchSubset)
		if err != nil {
			panic(err)
		}
		benchC = c
	})
	return benchC
}

// runFigure regenerates the registered spec id (internal/experiments)
// b.N times on the benchmark subset.
func runFigure(b *testing.B, id string) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunSuite(context.Background(), id, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the primary result (extension impact).
func BenchmarkFigure4(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFigure5 regenerates the integration stream breakdowns.
func BenchmarkFigure5(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFigure6 regenerates the IT associativity/size study.
func BenchmarkFigure6(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFigure7 regenerates the reduced-complexity core study.
func BenchmarkFigure7(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkDiagnostics regenerates the §3.2/§3.5 scalar diagnostics.
func BenchmarkDiagnostics(b *testing.B) { runFigure(b, "diag") }

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) { runFigure(b, "ablate") }

// BenchmarkPipeline measures raw simulation throughput (simulated
// instructions per second) for the full +reverse machine. The golden
// trace is materialized once outside the timed loop so the number
// isolates the pipeline itself; BenchmarkPipelineStreaming measures the
// end-to-end streaming path (emulator producer + pipeline consumer).
func BenchmarkPipeline(b *testing.B) {
	for _, name := range []string{"gzip", "crafty"} {
		for _, integ := range []string{sim.IntNone, sim.IntReverse} {
			b.Run(name+"/"+integ, func(b *testing.B) {
				bench, _ := workload.ByName(name)
				p, trace, err := bench.BuildMaterialized(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				o := sim.Options{Integration: integ}
				cfg, err := o.Config()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var retired, peak uint64
				for i := 0; i < b.N; i++ {
					st, err := pipeline.New(cfg, p, emu.FromSlice(trace)).RunContext(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					retired += st.Retired
					if st.TraceWindowPeak > peak {
						peak = st.TraceWindowPeak
					}
				}
				b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
				b.ReportMetric(float64(peak), "trace-peak")
			})
		}
	}
}

// BenchmarkPipelineStreaming measures the decoupled producer/consumer
// path: every iteration re-streams the golden trace from the emulator
// into the pipeline at O(ROB) memory, the configuration `rixbench` runs.
func BenchmarkPipelineStreaming(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired, peak uint64
	for i := 0; i < b.N; i++ {
		st, err := pipeline.New(cfg, bw.Prog, bw.Source()).RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
		if st.TraceWindowPeak > peak {
			peak = st.TraceWindowPeak
		}
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	b.ReportMetric(float64(peak), "trace-peak")
}

// BenchmarkPipelineSampled measures the interval-sampling engine
// end-to-end (the warm pass feeding detailed windows to a one-slot
// pool) on the configuration rixbench -sample runs. Minstr/s counts every
// program instruction covered, not just the detailed ones, so the
// number is directly comparable to BenchmarkPipelineStreaming.
func BenchmarkPipelineSampled(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var covered uint64
	for i := 0; i < b.N; i++ {
		est, err := sample.Run(context.Background(), bw.Prog, bw.DynLen, cfg, sample.Config{})
		if err != nil {
			b.Fatal(err)
		}
		covered += est.TotalInstrs
	}
	b.ReportMetric(float64(covered)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSampledParallel measures the sampled engine's windows alone:
// a prepared warm set is injected (Config.Warm — the
// checkpoint-cache-hit path), so each timed iteration runs only the
// concurrent detail windows. "speedup" compares equal work: the same
// injected warm set on a one-slot scheduler, measured untimed before
// the loop, against the GOMAXPROCS-slot pool timed in the loop;
// "cores" reports the host's parallelism so the benchgate can refuse to
// judge the speedup on starved runners. The one-slot run must match the
// naive one-window-at-a-time loop's estimate, committed in
// testdata/golden/sampled_oracle.json, and every timed iteration's
// aggregate must equal it bit for bit.
func BenchmarkSampledParallel(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	warm, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
	if err != nil {
		b.Fatal(err)
	}

	// One-slot baseline over the same warm set: a warm-up run builds
	// the slot's boot structures, then the timed run sees the steady
	// state, like the loop below. The warm-up's estimate is the
	// reference the parallel path must reproduce exactly.
	one := sample.NewScheduler(1)
	defer one.Close()
	oneSC := sample.Config{Scheduler: one, Warm: warm}
	oneEst, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, oneSC)
	if err != nil {
		b.Fatal(err)
	}
	testutil.MatchOracle(b, "gzip", oneEst)
	oneStart := time.Now()
	if _, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, oneSC); err != nil {
		b.Fatal(err)
	}
	oneWall := time.Since(oneStart)

	// A persistent scheduler, as deployed: the runner engine creates one
	// pool per matrix and every cell's windows flow through it, so the
	// timed loop sees the steady state — each slot's boot structures
	// already built and a finished pipeline to take over, rebooted in
	// place per window.
	sched := sample.NewScheduler(runtime.GOMAXPROCS(0))
	defer sched.Close()
	sc := sample.Config{Scheduler: sched, Warm: warm}

	b.ResetTimer()
	var covered uint64
	for i := 0; i < b.N; i++ {
		est, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
		if est.Agg != oneEst.Agg {
			b.Fatal("parallel estimate diverges from the naive loop")
		}
		covered += est.TotalInstrs
	}
	b.ReportMetric(float64(covered)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	b.ReportMetric(oneWall.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup")
	b.ReportMetric(float64(runtime.NumCPU()), "cores")
}

// BenchmarkWarmPass measures the warm pass alone: an uncached
// sample.PrepareWarm (fast-forward with functional warming, one
// boundary snapshot per window) on the configuration rixbench -sample
// runs. Minstr/s counts warmed instructions per second; allocs/op is
// dominated by the boundary snapshots.
func BenchmarkWarmPass(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	var covered uint64
	for i := 0; i < b.N; i++ {
		w, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{})
		if err != nil {
			b.Fatal(err)
		}
		covered += w.Total
	}
	b.ReportMetric(float64(covered)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSampledWindowBoot measures window boot: each iteration
// boots one prepared boundary (gzip, +reverse, the default layout) on a
// one-slot Scheduler and runs its window, the slot's warm set restored
// from the boundary's snapshot and its last finished pipeline taken
// over for parts. One untimed window first builds the slot's
// structures, so allocs/op is the steady-state cost of a boot: the
// memory image, the trace emulator and the pipeline's own struct.
// Minstr/s counts the window's detailed instructions, drain pad aside.
func BenchmarkSampledWindowBoot(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sp := sample.DefaultSampling()
	warm, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{Sampling: sp})
	if err != nil {
		b.Fatal(err)
	}
	job := sample.WindowJob{Prog: bw.Prog, Config: cfg, Sampling: sp, Boundary: warm.Boundaries[1]}
	sched := sample.NewScheduler(1)
	defer sched.Close()
	want, err := sched.Run(ctx, job)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := sched.Run(ctx, job)
		if err != nil {
			b.Fatal(err)
		}
		if got.Stats != want.Stats {
			b.Fatal("a rebooted window's stats differ from its first run's")
		}
	}
	b.ReportMetric(float64(sp.Warmup+sp.Window)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSampledMatrix regenerates the sampled Figure 4 matrix — fig4
// through runner.Sampled at the default window layout — on the
// benchmark subset, with two cells at a time sharing a two-slot window
// pool: the path `rixbench -suite fig4 -sample default` runs. Every
// iteration is the whole matrix, warm passes, ring refills and window
// boots included, so allocs/op gates the warm structures the engine
// reuses across cells. Minstr/s counts each cell's whole program.
func BenchmarkSampledMatrix(b *testing.B) {
	fig4, ok := runner.Lookup("fig4")
	if !ok {
		b.Fatal("fig4 spec not registered")
	}
	sp := runner.Sampled(fig4, sample.DefaultSampling())
	eng, err := runner.NewEngine(benchSubset)
	if err != nil {
		b.Fatal(err)
	}
	eng.Parallel, eng.WindowJobs = 2, 2
	ctx := context.Background()
	var perMatrix uint64
	for _, name := range benchSubset {
		bench, _ := workload.ByName(name)
		bw, err := bench.BuildContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		perMatrix += uint64(bw.DynLen) * uint64(len(sp.Configs))
	}
	// An untimed matrix builds the engine's workloads, so the loop
	// times the steady state a figure run sees after its first cells.
	if _, err := eng.Gather(ctx, &sp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Gather(ctx, &sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perMatrix)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSampledStealing measures what the shared slot pool buys
// over the retired static per-cell split on a deliberately skewed
// matrix: two concurrent sampled cells of the same workload, one laid
// out with 4x the windows of the other. Under the static split (each
// cell its own half-size pool — the old `windows = max(1, j / cells)`
// arithmetic), the short cell's slots idle once it settles while the
// long cell grinds at half width; the shared pool hands them over.
// The static-split wall clock is measured untimed before the loop;
// "speedup" is its ratio to the timed shared-pool runs, and "cores"
// lets the benchgate skip judgment on starved runners (a 1-core host
// cannot show wall-clock gain from slot handoff). Warm sets are
// prepared once and injected, so both variants time only the window
// phase the scheduler actually governs.
func BenchmarkSampledStealing(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	layouts := []sample.Sampling{
		{Interval: 4000, Window: 600, Warmup: 300},  // long cell: ~4x the windows
		{Interval: 16000, Window: 600, Warmup: 300}, // short cell: settles early
	}
	warms := make([]*sample.WarmSet, len(layouts))
	for i, l := range layouts {
		if warms[i], err = sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{Sampling: l}); err != nil {
			b.Fatal(err)
		}
	}
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 4 {
		jobs = 4
	}

	runMatrix := func(scheds []*sample.Scheduler) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, len(layouts))
		for i := range layouts {
			sc := sample.Config{Sampling: layouts[i], Scheduler: scheds[i], Warm: warms[i]}
			wg.Add(1)
			go func(i int, sc sample.Config) {
				defer wg.Done()
				_, errs[i] = sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
			}(i, sc)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	// Untimed static-split reference: one private half-size pool per
	// cell, no stealing possible.
	half := []*sample.Scheduler{sample.NewScheduler(jobs / 2), sample.NewScheduler(jobs / 2)}
	staticWall := runMatrix(half)
	half[0].Close()
	half[1].Close()

	shared := sample.NewScheduler(jobs)
	defer shared.Close()
	pool := []*sample.Scheduler{shared, shared}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMatrix(pool)
	}
	b.ReportMetric(staticWall.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup")
	b.ReportMetric(float64(runtime.NumCPU()), "cores")
}

// BenchmarkPipelineObserved measures the hot loop with the full
// cancellation/observation machinery armed: a live (cancellable)
// context plus a progress callback at the run API's default cadence —
// the configuration every run.Do simulation executes under. The
// benchgate baseline pins this at the plain hot loop's Minstr/s and
// allocs/op: the batched polls must stay free and allocation-free.
func BenchmarkPipelineObserved(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	p, trace, err := bench.BuildMaterialized(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	var retired, progressed uint64
	for i := 0; i < b.N; i++ {
		pl := pipeline.New(cfg, p, emu.FromSlice(trace))
		pl.SetProgress(run.DefaultProgressInterval, func(n uint64) { progressed = n })
		st, err := pl.RunContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	_ = progressed
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkEmulator measures functional-emulation throughput.
func BenchmarkEmulator(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	p, err := buildProg(bench)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		e := emu.New(p)
		if err := e.Run(workload.MaxInstrs); err != nil {
			b.Fatal(err)
		}
		n += e.Count
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func buildProg(bench workload.Benchmark) (*prog.Program, error) {
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		return nil, err
	}
	return bw.Prog, nil
}

// BenchmarkIntegrationTable measures IT lookup+insert throughput (the
// rename-stage critical loop of the paper). The table is built before
// the timer starts; one op is a fixed batch of tableBatch lookups, each
// that misses followed by an insert into the same set.
func BenchmarkIntegrationTable(b *testing.B) {
	const tableBatch = 4096
	for _, mode := range []struct {
		name string
		m    core.IndexMode
	}{{"pc", core.IndexPC}, {"opcode", core.IndexOpcode}} {
		b.Run(mode.name, func(b *testing.B) {
			t := core.NewTable(core.TableConfig{Entries: 1024, Assoc: 4, Mode: mode.m, UseCallDepth: true})
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < tableBatch; i++ {
					k := core.Key{PC: uint64(0x1000 + (i%512)*4), Op: 17, Imm: int64(i % 64), Depth: i % 8}
					set := t.Index(k)
					if t.Match(k, set, regfile.PReg(i%1024), uint8(i%16), regfile.NoReg, 0) == nil {
						t.Insert(k, set, regfile.PReg(i%1024), regfile.NoReg, false)
					}
				}
			}
		})
	}
}

// BenchmarkCacheAccess measures the tag arrays the warm pass drives on
// every memory instruction: a data access touches the DTLB and the L1D,
// and the L2 on an L1D miss (memsys.Hierarchy.WarmLoad/WarmStore), on
// the paper's memory system. The address stream is vortex's first
// 64k loads and stores, recorded by the emulator before the timer
// starts; one op replays all of them on one hierarchy, which stays warm
// from op to op.
func BenchmarkCacheAccess(b *testing.B) {
	const n = 1 << 16
	bench, _ := workload.ByName("vortex")
	p, err := buildProg(bench)
	if err != nil {
		b.Fatal(err)
	}
	type access struct {
		addr  uint64
		store bool
	}
	stream := make([]access, 0, n)
	for e := emu.New(p); len(stream) < n && !e.Halted; {
		rec, err := e.Step()
		if err != nil {
			b.Fatal(err)
		}
		switch p.Code[rec.CodeIdx].Op.ClassOf() {
		case isa.ClassLoad:
			stream = append(stream, access{rec.Addr, false})
		case isa.ClassStore:
			stream = append(stream, access{rec.Addr, true})
		}
	}
	h := memsys.New(memsys.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range stream {
			if a.store {
				h.WarmStore(a.addr)
			} else {
				h.WarmLoad(a.addr)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/access")
}

// BenchmarkRegfile measures the reference-counting state vector.
func BenchmarkRegfile(b *testing.B) {
	f := regfile.New(regfile.Config{NumRegs: 1024, GenBits: 4, RefBits: 4, GeneralMode: true})
	var live []regfile.PReg
	for i := 0; i < b.N; i++ {
		if len(live) < 512 {
			p, ok := f.Alloc()
			if !ok {
				b.Fatal("exhausted")
			}
			f.SetReady(p, uint64(i))
			live = append(live, p)
		} else {
			p := live[0]
			live = live[1:]
			f.Release(p, regfile.CauseShadow)
		}
	}
}
