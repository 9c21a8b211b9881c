// Command perfbench is rix's end-to-end benchmark. It runs the Figure 4
// matrix (base plus four integration presets under the realistic LISP and
// under oracle suppression, over the 16 registered programs plus one
// seeded held-out program) through the public entry points only, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads, one per invocation (-workload):
//
//	fig4-detail          full-detail matrix; loads the pipeline
//	fig4-sampled         runner.Sampled(fig4, DefaultSampling()) on a shared window pool, no cache
//	fig4-sampled-seq     the same with Engine.WindowJobs = 1: each cell runs the sequential engine
//	fig4-sampled-cached  fig4-sampled against a checkpoint cache filled during set-up
//
// All four use one closed loop: a runner.Engine with Parallel = NumCPU
// keeps that many cells in flight and starts the next when one finishes.
// The matrix repeats while the next pass is projected to end within
// -seconds (always at least one pass). -seed permutes the cell submission
// order and generates the held-out program.
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 it
// alternates untraced and traced passes, reports the tracing overhead and
// per-layer metrics from probes that time each layer's public calls, and
// writes every span to <work>/spans-<workload>-<seed>.json.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload fig4-sampled --seed 1 --seconds 20 --trace 0
//
// After a change that alters simulated results on purpose, regenerate the
// reference digests with:
//
//	go run . -write-ref -ref reference.json      (from perfbench/)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rix/internal/workload"
)

// A run sets up at least minSetups times, and again while the set-ups so
// far took under setupBudget, up to maxSetups; setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = 2 * time.Second
)

// named is one reported metric; note says what it measures and, for a
// ratio, its base.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host holds the facts every result is stamped with.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	os.Exit(realMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload: fig4-detail, fig4-sampled, fig4-sampled-seq or fig4-sampled-cached")
	seed := fs.Int64("seed", 1, "workload seed: cell submission order and held-out program")
	seconds := fs.Float64("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	programs := fs.String("programs", "", "comma-separated registered programs (default: all 16)")
	refPath := fs.String("ref", filepath.Join("perfbench", "reference.json"), "reference digests")
	writeRef := fs.Bool("write-ref", false, "regenerate the reference digests and exit")
	work := fs.String("work", ".bench_build", "directory for temporary caches and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	progs := workload.Names()
	if *programs != "" {
		progs = strings.Split(*programs, ",")
	}
	for _, n := range progs {
		if _, ok := workload.ByName(n); !ok {
			fmt.Fprintf(stderr, "perfbench: unknown program %q\n", n)
			return 2
		}
	}
	if *writeRef {
		if err := writeReference(ctx, progs, runtime.NumCPU(), *refPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := lookupWorkload(*wlName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of fig4-detail, fig4-sampled, fig4-sampled-seq, fig4-sampled-cached), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	ref, err := loadReference(*refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{wl: wl, seed: *seed, programs: progs, held: heldout(*seed), par: runtime.NumCPU(), work: *work, ref: ref}
	res, report, err := b.run(ctx, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	io.WriteString(stdout, report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run sets up, measures and reports one workload. It returns the result
// and the human-readable report that precedes it.
func (b *bench) run(ctx context.Context, budget time.Duration, traced bool) (*result, string, error) {
	h := hostFacts()
	rng := rand.New(rand.NewSource(b.seed))
	spec, err := b.spec(rng)
	if err != nil {
		return nil, "", err
	}

	var setups []float64
	var src *workload.Builder
	var cache string
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget.Seconds()); {
		if cache != "" {
			os.RemoveAll(cache)
		}
		t := time.Now()
		if src, cache, err = b.setup(ctx, spec); err != nil {
			return nil, "", err
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += setups[len(setups)-1]
	}
	if cache != "" {
		defer os.RemoveAll(cache)
	}

	log := newSpanLog()
	obs := newObserver(log)
	m, err := b.newMatrix(ctx, rng, spec, src, cache, obs)
	if err != nil {
		return nil, "", err
	}

	var rep strings.Builder
	fmt.Fprintf(&rep, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Fprintf(&rep, "workload %s seed %d: %d programs (held-out %s, %d instrs) x %d configs, %d cells in flight\n",
		b.wl.name, b.seed, len(b.names()), b.held.Name, m.dynLen[b.held.Name], len(spec.Configs), b.par)

	res := &result{Metrics: map[string]metric{}}
	var out []named
	var errs []string
	tally := func(passes []passResult) {
		for _, p := range passes {
			res.Attempted += p.attempted
			res.Failed += p.failed
			errs = append(errs, p.errs...)
		}
	}

	plain, withSpans := m.runPasses(ctx, budget, traced)
	tally(plain)
	tally(withSpans)
	if !traced {
		out = endToEnd(plain, log, setups, b.wl.sampled)
		fmt.Fprintf(&rep, "%d passes at %s Minstr/s\n", len(plain), passRates(plain))
	} else {
		base, tr := passRate(plain), passRate(withSpans)
		fmt.Fprintf(&rep, "alternating passes, untraced at %s Minstr/s, traced at %s\n", passRates(plain), passRates(withSpans))
		out = append(out, named{"trace.overhead_pct", (base - tr) / base * 100, "%",
			fmt.Sprintf("(untraced - traced) / untraced minstr_per_s, same matrix: %.4g vs %.4g Minstr/s", base, tr)})
		out = append(out, runnerMetrics(log, withSpans, b.par)...)

		pr, err := newProbes(b, src, log)
		if err != nil {
			return nil, "", err
		}
		layer, err := pr.run(ctx)
		if err != nil {
			return nil, "", err
		}
		out = append(out, layer...)
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		errs = append(errs, pr.errs...)
		path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.json", b.wl.name, b.seed))
		if err := log.write(path, h); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&rep, "%d spans written to %s\n", len(log.closed()), path)
	}

	for _, e := range errs {
		fmt.Fprintf(&rep, "FAIL %s\n", e)
	}
	fmt.Fprintf(&rep, "fail_ratio %.6g (%d failed / %d attempted)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, n := range out {
		fmt.Fprintf(&rep, "%-34s %14.6g %-9s %s\n", n.name, n.value, n.unit, n.note)
		res.Metrics[n.name] = metric{Value: n.value, Unit: n.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, rep.String(), nil
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func endToEnd(passes []passResult, log *spanLog, setups []float64, sampled bool) []named {
	cells := cellSpans(log, passes)
	var cpu []float64
	var ipcErr float64
	for _, p := range passes {
		cpu = append(cpu, p.cpu.Seconds())
		ipcErr = math.Max(ipcErr, p.ipcErr)
	}
	fromRef := "detail"
	if !sampled {
		fromRef = "sampled"
	}
	n := fmt.Sprintf("run.Do CellStarted to CellFinished, %d cells", len(cells))
	return []named{
		{"minstr_per_s", passRate(passes), "Minstr/s", fmt.Sprintf("median over %d passes of simulated instructions / pass wall time", len(passes))},
		{"cell_p50_ms", percentile(cells, 0.5), "ms", n},
		{"cell_p90_ms", percentile(cells, 0.9), "ms", n},
		{"cpu_s", median(cpu), "s", "median per-pass process user+sys CPU"},
		{"peak_rss_mb", peakRSSMB(), "MB", "process peak resident set"},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: builds, plus the cache fill when cached", len(setups))},
		{"sampled_ipc_err_pct", ipcErr * 100, "%", "max over reference cells of |IPC_sampled - IPC_detail| / IPC_detail; " + fromRef + " side from the reference"},
	}
}

// runnerMetrics derives the engine's slot use from the traced passes.
func runnerMetrics(log *spanLog, passes []passResult, slots int) []named {
	spans := log.closed()
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	var busy, tail []float64
	var cellSelf, cellDur time.Duration
	for _, p := range passes {
		ps := byID[p.id]
		var sum time.Duration
		var last int64
		for _, s := range spans {
			if s.Parent == p.id && s.Name == "cell" {
				sum += s.dur()
				last = max(last, s.Start)
				cellSelf += self[s.ID]
				cellDur += s.dur()
			}
		}
		busy = append(busy, float64(sum)/(float64(slots)*float64(ps.dur())))
		tail = append(tail, float64(ps.End-last)/1e6)
	}
	return []named{
		{"runner.slot_busy_ratio", median(busy), "ratio", fmt.Sprintf("sum of cell time / (%d slots x pass makespan), median over traced passes", slots)},
		{"runner.tail_ms", median(tail), "ms", "pass makespan minus start of its last cell, median over traced passes"},
		{"trace.cell_self_share", float64(cellSelf) / float64(cellDur), "ratio", "cell self time (outside window and shard spans) / cell time"},
	}
}

// cellSpans returns the cell latencies of the given passes, in ms.
func cellSpans(log *spanLog, passes []passResult) []float64 {
	ids := map[int]bool{}
	for _, p := range passes {
		ids[p.id] = true
	}
	var out []float64
	for _, s := range log.closed() {
		if s.Name == "cell" && ids[s.Parent] {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// passRate is the median over passes of simulated Minstr per wall second.
func passRate(passes []passResult) float64 {
	var r []float64
	for _, p := range passes {
		r = append(r, p.rate())
	}
	return median(r)
}

func passRates(passes []passResult) string {
	var s []string
	for _, p := range passes {
		s = append(s, fmt.Sprintf("%.4g", p.rate()))
	}
	return strings.Join(s, " ")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
