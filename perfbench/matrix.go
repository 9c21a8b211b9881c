package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	_ "rix/internal/experiments" // registers the fig4 spec
	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/workload"
)

// workloadDef is one benchmark workload: the Figure 4 matrix, executed
// in the way that loads the layer the workload is named for.
type workloadDef struct {
	name    string
	sampled bool // every cell through runner.Sampled(fig4, DefaultSampling())
	// windowJobs is runner.Engine.WindowJobs: 0 shares one window pool
	// across the matrix, 1 runs each sampled cell's sequential engine.
	windowJobs int
	cached     bool // set-up fills a fresh CheckpointCache, so every timed cell is a warm-set hit
}

var workloads = []workloadDef{
	{name: "fig4-detail"},
	{name: "fig4-sampled", sampled: true},
	{name: "fig4-sampled-seq", sampled: true, windowJobs: 1},
	{name: "fig4-sampled-cached", sampled: true, cached: true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// heldout is the seeded program added to every matrix: a generated
// workload.Synth program no reference digest covers, so a claim can be
// rechecked on an unseen input. It is checked by the build's exit-0
// self-check and by every cell finishing without error.
func heldout(seed int64) workload.Benchmark {
	return workload.Synth(workload.SynthParams{
		Seed: seed, Iters: 4000, BodyOps: 24, CallEvery: 6,
		MemFrac: 0.3, BranchFrac: 0.3, Invariants: 2,
	})
}

// bench is one benchmark invocation: a workload, its seed, and the
// programs its matrix covers.
type bench struct {
	wl       workloadDef
	seed     int64
	programs []string // registered programs in paper order
	held     workload.Benchmark
	par      int    // runner.Engine.Parallel: cells in flight
	work     string // directory for temporary caches and span files
	ref      *reference
}

// names lists every program of the matrix: the registered ones, then the
// held-out one.
func (b *bench) names() []string {
	return append(append([]string(nil), b.programs...), b.held.Name)
}

// build is the workload.BuildFunc behind every builder the benchmark
// makes: registered programs from the registry, plus the held-out one.
func (b *bench) build(ctx context.Context, name string) (workload.Built, error) {
	if name == b.held.Name {
		return b.held.BuildContext(ctx)
	}
	return workload.RegistryBuild(ctx, name)
}

// spec returns the workload's Figure 4 spec with its configurations in
// the seed's order.
func (b *bench) spec(rng *rand.Rand) (*runner.Spec, error) {
	fig4, ok := runner.Lookup("fig4")
	if !ok {
		return nil, fmt.Errorf("fig4 spec not registered")
	}
	sp := *fig4
	if b.wl.sampled {
		sp = runner.Sampled(fig4, sample.DefaultSampling())
	}
	sp.Collect = nil
	cfgs := make([]runner.Config, len(sp.Configs))
	for i, j := range rng.Perm(len(cfgs)) {
		cfgs[i] = sp.Configs[j]
	}
	sp.Configs = cfgs
	return &sp, nil
}

// setup builds every program with a fresh builder and, on the cached
// workload, fills a fresh checkpoint cache with the warm set (and stride
// snapshots) of every cell in spec. It returns the builder and the cache
// directory ("" when uncached).
func (b *bench) setup(ctx context.Context, spec *runner.Spec) (*workload.Builder, string, error) {
	src := workload.NewBuilderFunc(b.build)
	if err := src.BuildAll(ctx, b.names(), b.par); err != nil {
		return nil, "", err
	}
	if !b.wl.cached {
		return src, "", nil
	}
	dir, err := os.MkdirTemp(b.work, "ckpt-")
	if err != nil {
		return nil, "", err
	}
	// One worker per program walks its configurations in order, so cells
	// sharing a warm-set key hit the entry the first one wrote.
	names := b.names()
	errs := make([]error, len(names))
	sem := make(chan struct{}, b.par)
	var wg sync.WaitGroup
	for i, name := range names {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fillCache(ctx, src, name, spec.Configs, dir)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
	}
	return src, dir, nil
}

func fillCache(ctx context.Context, src *workload.Builder, name string, cfgs []runner.Config, dir string) error {
	bw, err := src.Get(ctx, name)
	if err != nil {
		return err
	}
	for _, c := range cfgs {
		cfg, err := c.Opt.Config()
		if err != nil {
			return err
		}
		sc := sample.Config{Sampling: *c.Opt.Sampling, CacheDir: dir}
		if _, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sc); err != nil {
			return fmt.Errorf("fill cache %s [%s]: %w", name, c.Label, err)
		}
	}
	return nil
}

// observer turns run.Observer events into spans. Untraced, it times only
// cells (CellStarted to CellFinished) and counts warm-set cache traffic;
// traced, it also records window, warm-shard and cache-hit spans.
type observer struct {
	log    *spanLog
	traced bool

	mu      sync.Mutex
	pass    int            // span id of the running matrix pass
	cells   map[string]int // open cell span by cell key
	windows map[string]int // open window span by cell key and index
	shards  map[string]int // open warm-shard span by cell key and shard
	hit     map[string]bool
	writes  int
}

func newObserver(log *spanLog) *observer {
	return &observer{log: log,
		cells: map[string]int{}, windows: map[string]int{}, shards: map[string]int{}, hit: map[string]bool{}}
}

func cellKey(bench, label string) string { return bench + " [" + label + "]" }

func (o *observer) Observe(e run.Event) {
	key := cellKey(e.Workload, e.Label)
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e.Kind {
	case run.CellStarted:
		o.cells[key] = o.log.begin("cell", key, o.pass)
	case run.CellFinished:
		if id, ok := o.cells[key]; ok {
			o.log.end(id)
			delete(o.cells, key)
		}
	case run.CacheHit:
		o.hit[key] = true
		if o.traced {
			o.log.end(o.log.begin("cache-hit", key, o.cells[key]))
		}
	case run.CacheWritten:
		o.writes++
	}
	if !o.traced {
		return
	}
	switch e.Kind {
	case run.WindowScheduled:
		wk := fmt.Sprintf("%s#%d", key, e.Window)
		if id, ok := o.windows[wk]; ok { // re-dispatch after a discard
			o.log.end(id)
		}
		o.windows[wk] = o.log.begin("window", key, o.cells[key])
	case run.WindowDone:
		wk := fmt.Sprintf("%s#%d", key, e.Window)
		if id, ok := o.windows[wk]; ok {
			o.log.end(id)
			delete(o.windows, wk)
		}
	case run.WarmShardStarted:
		o.shards[fmt.Sprintf("%s#%d", key, e.Shard)] = o.log.begin("warm-shard", key, o.cells[key])
	case run.WarmShardDone:
		sk := fmt.Sprintf("%s#%d", key, e.Shard)
		if id, ok := o.shards[sk]; ok {
			o.log.end(id)
			delete(o.shards, sk)
		}
	}
}

// passResult is one timed pass over the whole matrix.
type passResult struct {
	id        int           // span id of the pass
	wall      time.Duration // Stream call, first submission to last result
	cpu       time.Duration // process user+sys CPU during the pass
	instrs    uint64        // simulated instructions covered
	attempted int
	failed    int
	ipcErr    float64 // max relative IPC gap to the reference's other mode
	errs      []string
}

// rate is the pass's simulated Minstr per wall second.
func (p passResult) rate() float64 { return float64(p.instrs) / p.wall.Seconds() / 1e6 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// matrix is the timed state of one workload: the engine, its spec and
// the per-program dynamic lengths sampled cells are credited with.
type matrix struct {
	b      *bench
	eng    *runner.Engine
	spec   *runner.Spec
	obs    *observer
	dynLen map[string]uint64
}

func (b *bench) newMatrix(ctx context.Context, rng *rand.Rand, spec *runner.Spec, src *workload.Builder, cache string, obs *observer) (*matrix, error) {
	names := b.names()
	order := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		order[i] = names[j]
	}
	eng := runner.NewEngineWith(order, src)
	eng.Parallel = b.par
	eng.WindowJobs = b.wl.windowJobs
	eng.CheckpointCache = cache
	eng.Observer = obs
	m := &matrix{b: b, eng: eng, spec: spec, obs: obs, dynLen: map[string]uint64{}}
	for _, n := range names {
		bw, err := src.Get(ctx, n)
		if err != nil {
			return nil, err
		}
		m.dynLen[n] = uint64(bw.DynLen)
	}
	return m, nil
}

// pass runs the matrix once through Engine.Stream and checks every cell;
// traced selects whether the observer records window-level spans.
func (m *matrix) pass(ctx context.Context, traced bool) passResult {
	runtime.GC()
	var pr passResult
	m.obs.mu.Lock()
	pr.id = m.obs.log.begin("pass", "", 0)
	m.obs.pass = pr.id
	m.obs.traced = traced
	m.obs.hit = map[string]bool{}
	m.obs.writes = 0
	m.obs.mu.Unlock()

	cpu0, t0 := cpuTime(), time.Now()
	err := m.eng.Stream(ctx, m.spec, func(r runner.Result) error {
		pr.attempted++
		if msg := m.b.check(r, m.b.wl.sampled, &pr.ipcErr); msg != "" {
			pr.failed++
			pr.errs = append(pr.errs, msg)
		}
		if m.b.wl.sampled {
			pr.instrs += m.dynLen[r.Bench]
		} else {
			pr.instrs += r.Stats.Retired
		}
		return nil
	})
	pr.wall, pr.cpu = time.Since(t0), cpuTime()-cpu0
	m.obs.log.end(pr.id)
	if err != nil { // Stream stops at the first failed cell
		pr.attempted++
		pr.failed++
		pr.errs = append(pr.errs, err.Error())
	}
	if m.eng.CheckpointCache != "" {
		// The cached workload's premise: every timed cell loads its warm
		// set, none rebuilds one.
		m.obs.mu.Lock()
		if m.obs.writes > 0 || len(m.obs.hit) < pr.attempted {
			pr.failed++
			pr.errs = append(pr.errs, fmt.Sprintf("cache: %d of %d cells hit, %d entries written",
				len(m.obs.hit), pr.attempted, m.obs.writes))
		}
		m.obs.mu.Unlock()
	}
	return pr
}

// runPasses repeats the matrix while the next round is projected to end
// within budget; it always runs one round, and stops after a failure. A
// round is one untraced pass, or with alternate one untraced and one
// traced pass, so drift in host speed hits both sides alike.
func (m *matrix) runPasses(ctx context.Context, budget time.Duration, alternate bool) (plain, traced []passResult) {
	deadline := time.Now().Add(budget)
	for {
		t := time.Now()
		pr := m.pass(ctx, false)
		plain = append(plain, pr)
		if alternate && pr.failed == 0 {
			pr = m.pass(ctx, true)
			traced = append(traced, pr)
		}
		if pr.failed > 0 || time.Now().Add(time.Since(t)).After(deadline) {
			return plain, traced
		}
	}
}

// reference holds a digest of every fixed cell's pipeline.Stats, for the
// detail and for the sampled matrix, keyed by program then config label.
type reference struct {
	Detail  map[string]map[string]refCell `json:"detail"`
	Sampled map[string]map[string]refCell `json:"sampled"`
}

type refCell struct {
	Digest string  `json:"digest"`
	IPC    float64 `json:"ipc"`
}

func digest(st *pipeline.Stats) string {
	data, err := json.Marshal(st)
	if err != nil {
		panic(err) // Stats is plain counters; marshalling cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	return &ref, nil
}

// check compares one cell against the reference. It returns "" when the
// cell is correct, else what is wrong. For a registered program it also
// raises *ipcErr to the cell's relative IPC gap between sampled and
// detailed simulation, one side measured now and the other taken from
// the reference. Held-out cells are correct when they finish.
func (b *bench) check(r runner.Result, sampled bool, ipcErr *float64) string {
	if r.Err != nil {
		return cellKey(r.Bench, r.Label) + ": " + r.Err.Error()
	}
	if r.Bench == b.held.Name {
		return ""
	}
	mine, other := b.ref.Detail, b.ref.Sampled
	if sampled {
		mine, other = other, mine
	}
	want, ok := mine[r.Bench][r.Label]
	if !ok {
		return cellKey(r.Bench, r.Label) + ": no reference digest"
	}
	if got := digest(r.Stats); got != want.Digest {
		return fmt.Sprintf("%s: stats digest %s, reference %s", cellKey(r.Bench, r.Label), got, want.Digest)
	}
	if o, ok := other[r.Bench][r.Label]; ok {
		samp, det := o.IPC, r.Stats.IPC()
		if sampled {
			samp, det = det, o.IPC
		}
		*ipcErr = math.Max(*ipcErr, math.Abs(samp-det)/det)
	}
	return ""
}

// writeReference runs the detail and the sampled matrix once over the
// registered programs and records every cell's digest and IPC.
func writeReference(ctx context.Context, programs []string, par int, path string) error {
	fig4, ok := runner.Lookup("fig4")
	if !ok {
		return fmt.Errorf("fig4 spec not registered")
	}
	eng, err := runner.NewEngine(programs)
	if err != nil {
		return err
	}
	eng.Parallel = par
	collect := func(sp *runner.Spec) (map[string]map[string]refCell, error) {
		rs, err := eng.Gather(ctx, sp)
		if err != nil {
			return nil, err
		}
		out := map[string]map[string]refCell{}
		for _, b := range rs.Benches() {
			out[b] = map[string]refCell{}
			for _, l := range rs.Labels() {
				st := rs.Get(b, l)
				out[b][l] = refCell{Digest: digest(st), IPC: st.IPC()}
			}
		}
		return out, nil
	}
	var ref reference
	if ref.Detail, err = collect(fig4); err != nil {
		return err
	}
	sampled := runner.Sampled(fig4, sample.DefaultSampling())
	if ref.Sampled, err = collect(&sampled); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// probeOptions is the configuration the per-layer probes simulate: the
// paper's headline machine, every extension with the realistic LISP.
func probeOptions() sim.Options {
	presets := sim.IntegrationPresets()
	return sim.Options{Integration: presets[len(presets)-1], Suppression: sim.SuppressLISP}
}

// probeLabel is the probe configuration's label in the fig4 spec.
func probeLabel() string { return probeOptions().Integration + "/lisp" }
