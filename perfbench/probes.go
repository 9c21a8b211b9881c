package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/workload"
)

// probes times calls into each layer's public functions from outside,
// over the matrix's registered programs (the held-out one is left out,
// so every simulated count repeats across seeds) at the probe
// configuration. Each probe records one span per call.
type probes struct {
	b     *bench
	src   *workload.Builder
	log   *spanLog
	cfg   pipeline.Config
	label string // the probe configuration's fig4 label
	warm  map[string]*sample.WarmSet
	cold  map[string]time.Duration // uncached PrepareWarm time per program

	attempted, failed int
	errs              []string
}

func newProbes(b *bench, src *workload.Builder, log *spanLog) (*probes, error) {
	opt := probeOptions()
	cfg, err := opt.Config()
	if err != nil {
		return nil, err
	}
	return &probes{b: b, src: src, log: log, cfg: cfg, label: probeLabel(),
		warm: map[string]*sample.WarmSet{}, cold: map[string]time.Duration{}}, nil
}

// verify counts one checked probe result against the reference.
func (p *probes) verify(name string, ref map[string]map[string]refCell, st *pipeline.Stats) {
	p.attempted++
	want, ok := ref[name][p.label]
	if got := digest(st); !ok || got != want.Digest {
		p.failed++
		p.errs = append(p.errs, fmt.Sprintf("probe %s: stats digest %s, reference %q", cellKey(name, p.label), got, want.Digest))
	}
}

// each runs fn once per registered program inside one parent span.
func (p *probes) each(ctx context.Context, name string, fn func(parent int, prog string, bw workload.Built) error) error {
	_, err := p.log.around(name, "", 0, func(id int) error {
		for _, n := range p.b.programs {
			bw, err := p.src.Get(ctx, n)
			if err != nil {
				return err
			}
			if err := fn(id, n, bw); err != nil {
				return fmt.Errorf("%s %s: %w", name, n, err)
			}
		}
		return nil
	})
	return err
}

func (p *probes) run(ctx context.Context) ([]named, error) {
	var out []named
	for _, probe := range []func(context.Context) ([]named, error){
		p.workload, p.emu, p.pipeline, p.warmPass, p.cache, p.sequential, p.windows, p.settled, p.doOverhead,
	} {
		got, err := probe(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

func (p *probes) workload(ctx context.Context) ([]named, error) {
	fresh := workload.NewBuilderFunc(p.b.build)
	var total time.Duration
	_, err := p.log.around("probe.workload", "", 0, func(id int) error {
		for _, n := range p.b.names() {
			d, err := p.log.around("workload.Builder.Get", n, id, func(int) error {
				_, err := fresh.Get(ctx, n)
				return err
			})
			if err != nil {
				return err
			}
			total += d
		}
		return nil
	})
	return []named{{"workload.build_ms", ms(total), "ms", "sum of one fresh Builder.Get per matrix program"}}, err
}

func (p *probes) emu(ctx context.Context) ([]named, error) {
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		var instrs uint64
		var host time.Duration
		err := p.each(ctx, "probe.emu", func(parent int, n string, bw workload.Built) error {
			d, err := p.log.around("emu.Stream", n, parent, func(int) error {
				s := emu.Stream(bw.Prog, workload.MaxInstrs)
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
				instrs += s.Emulator().Count
				return s.Err()
			})
			host += d
			return err
		})
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(instrs)/host.Seconds()/1e6)
	}
	return []named{{"emu.minstr_s", median(rates), "Minstr/s", "median of 3 drains of every program's emu.Stream"}}, nil
}

func (p *probes) pipeline(ctx context.Context) ([]named, error) {
	var agg pipeline.Stats
	var host time.Duration
	var mallocs, bytes uint64
	err := p.each(ctx, "probe.pipeline", func(parent int, n string, bw workload.Built) error {
		var m0, m1 runtime.MemStats
		var st *pipeline.Stats
		runtime.ReadMemStats(&m0)
		d, err := p.log.around("pipeline.RunContext", n, parent, func(int) error {
			var err error
			st, err = pipeline.New(p.cfg, bw.Prog, bw.Source()).RunContext(ctx)
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		host += d
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		p.verify(n, p.b.ref.Detail, st)
		agg.Add(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	k := float64(agg.Retired) / 1000
	return []named{
		{"pipeline.minstr_s", float64(agg.Retired) / host.Seconds() / 1e6, "Minstr/s", "retired / host time of RunContext"},
		{"pipeline.ns_per_cycle", float64(host.Nanoseconds()) / float64(agg.Cycles), "ns", "host time / simulated cycles"},
		{"pipeline.allocs_per_kinstr", float64(mallocs) / k, "count", "MemStats.Mallocs delta around RunContext"},
		{"pipeline.bytes_per_kinstr", float64(bytes) / k, "B", "MemStats.TotalAlloc delta around RunContext"},
		{"pipeline.cycles_per_kinstr", float64(agg.Cycles) / k, "count", "simulated"},
		{"pipeline.wrong_path_per_kinstr", float64(agg.FetchedWrongPath) / k, "count", "simulated"},
		{"pipeline.squashes_per_kinstr", float64(agg.Squashes) / k, "count", "simulated"},
		{"pipeline.rename_stalls_per_kinstr", float64(agg.RenameStallsResources) / k, "count", "simulated"},
		{"core.integrated_per_kinstr", float64(agg.Integrated) / k, "count", "simulated"},
		{"core.misint_per_minstr", float64(agg.MisIntegrations) / k * 1000, "count", "simulated"},
		{"bpred.mispredicts_per_kinstr", float64(agg.CondMispredicts+agg.IndirectMispreds) / k, "count", "simulated"},
		{"memsys.icache_stalls_per_kinstr", float64(agg.FetchStallsICache) / k, "count", "simulated"},
	}, nil
}

func (p *probes) sampling() sample.Config {
	return sample.Config{Sampling: sample.DefaultSampling()}
}

func (p *probes) warmPass(ctx context.Context) ([]named, error) {
	var instrs uint64
	var host time.Duration
	err := p.each(ctx, "probe.sample.warm", func(parent int, n string, bw workload.Built) error {
		d, err := p.log.around("sample.PrepareWarm", n, parent, func(int) error {
			ws, err := sample.PrepareWarm(ctx, bw.Prog, p.cfg, p.sampling())
			p.warm[n] = ws
			return err
		})
		if err != nil {
			return err
		}
		p.cold[n] = d
		host += d
		instrs += p.warm[n].Total
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []named{{"sample.warm.minstr_s", float64(instrs) / host.Seconds() / 1e6, "Minstr/s", "WarmSet.Total / host time of uncached PrepareWarm"}}, nil
}

func (p *probes) cache(ctx context.Context) ([]named, error) {
	dir, err := os.MkdirTemp(p.b.work, "probe-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc := p.sampling()
	sc.CacheDir = dir
	var write, load time.Duration
	err = p.each(ctx, "probe.sample.cache-fill", func(parent int, n string, bw workload.Built) error {
		d, err := p.log.around("sample.PrepareWarm", n, parent, func(int) error {
			_, err := sample.PrepareWarm(ctx, bw.Prog, p.cfg, sc)
			return err
		})
		write += d - p.cold[n]
		return err
	})
	if err != nil {
		return nil, err
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = p.each(ctx, "probe.sample.cache-load", func(parent int, n string, bw workload.Built) error {
		d, err := p.log.around("sample.PrepareWarm", n, parent, func(int) error {
			_, err := sample.PrepareWarm(ctx, bw.Prog, p.cfg, sc)
			return err
		})
		load += d
		return err
	})
	if err != nil {
		return nil, err
	}
	return []named{
		{"sample.cache.load_ms", ms(load), "ms", "PrepareWarm on a filled cache, summed over programs"},
		{"sample.cache.write_ms", ms(write), "ms", "cold PrepareWarm with CacheDir minus the same program's uncached PrepareWarm"},
		{"sample.cache.mb", float64(size) / (1 << 20), "MB", "cache directory size after the fill"},
	}, nil
}

func (p *probes) sequential(ctx context.Context) ([]named, error) {
	var instrs uint64
	var host time.Duration
	err := p.each(ctx, "probe.sample.seq", func(parent int, n string, bw workload.Built) error {
		var est *sample.Estimate
		d, err := p.log.around("sample.Run", n, parent, func(int) error {
			var err error
			est, err = sample.Run(ctx, bw.Prog, bw.DynLen, p.cfg, p.sampling())
			return err
		})
		if err != nil {
			return err
		}
		host += d
		instrs += est.TotalInstrs
		p.verify(n, p.b.ref.Sampled, &est.Agg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []named{{"sample.seq.minstr_s", float64(instrs) / host.Seconds() / 1e6, "Minstr/s", "TotalInstrs / host time of sequential sample.Run"}}, nil
}

func (p *probes) windows(ctx context.Context) ([]named, error) {
	sched := sample.NewScheduler(p.b.par)
	defer sched.Close()
	var detailed, windows, mallocs uint64
	var host time.Duration
	var lat []float64
	err := p.each(ctx, "probe.sample.windows", func(parent int, n string, bw workload.Built) error {
		var mu sync.Mutex
		open := map[int]int{} // window index -> span id
		sc := p.sampling()
		sc.Warm = p.warm[n]
		sc.Scheduler = sched
		var est *sample.Estimate
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := p.log.around("sample.Run", n, parent, func(id int) error {
			sc.Hooks.WindowScheduled = func(i int) {
				mu.Lock()
				defer mu.Unlock()
				if w, ok := open[i]; ok { // re-dispatch after a discard
					p.log.end(w)
				}
				open[i] = p.log.begin("window", n, id)
			}
			sc.Hooks.WindowDone = func(w sample.WindowStat) {
				mu.Lock()
				defer mu.Unlock()
				if s, ok := open[w.Index]; ok {
					delete(open, w.Index)
					lat = append(lat, float64(p.log.end(s).dur())/1e6)
				}
			}
			var err error
			est, err = sample.Run(ctx, bw.Prog, bw.DynLen, p.cfg, sc)
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		host += d
		detailed += est.DetailedInstrs
		windows += uint64(len(est.Windows))
		mallocs += m1.Mallocs - m0.Mallocs
		p.verify(n, p.b.ref.Sampled, &est.Agg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Float64s(lat)
	return []named{
		{"sample.windows.minstr_s", float64(detailed) / host.Seconds() / 1e6, "Minstr/s", "DetailedInstrs / host time of sample.Run with an injected WarmSet"},
		{"sample.window_p50_ms", percentile(lat, 0.5), "ms", fmt.Sprintf("WindowScheduled to WindowDone, %d windows", len(lat))},
		{"sample.window_p90_ms", percentile(lat, 0.9), "ms", fmt.Sprintf("WindowScheduled to WindowDone, %d windows", len(lat))},
		{"sample.allocs_per_window", float64(mallocs) / float64(windows), "count", "MemStats.Mallocs delta / settled windows"},
	}, nil
}

func (p *probes) settled(ctx context.Context) ([]named, error) {
	sched := sample.NewScheduler(p.b.par)
	defer sched.Close()
	opt := probeOptions()
	sp := sample.DefaultSampling()
	opt.Sampling = &sp
	var settled, dispatched uint64
	err := p.each(ctx, "probe.run.sampled", func(parent int, n string, bw workload.Built) error {
		var res *run.Result
		_, err := p.log.around("run.Do", n, parent, func(int) error {
			var err error
			req := run.Request{Workload: n, Label: p.label, Options: opt, Jobs: p.b.par}
			res, err = run.Do(ctx, req, run.WithSource(p.src), run.WithScheduler(sched))
			return err
		})
		if err != nil {
			return err
		}
		settled += res.Sampled.WindowsSettled
		dispatched += res.Sampled.WindowsDispatched
		p.verify(n, p.b.ref.Sampled, &res.Stats)
		if res.Sampled.TotalInstrs != uint64(bw.DynLen) {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("probe %s: TotalInstrs %d, DynLen %d", n, res.Sampled.TotalInstrs, bw.DynLen))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []named{{"sample.settled_ratio", float64(settled) / float64(dispatched), "ratio",
		fmt.Sprintf("windows settled / dispatched (%d / %d) by run.Do on a %d-slot pool", settled, dispatched, p.b.par)}}, nil
}

// doOverhead times the shortest program's detail cell through run.Do
// against a direct pipeline call, alternating which goes first.
func (p *probes) doOverhead(ctx context.Context) ([]named, error) {
	short, shortLen := "", 0
	for _, n := range p.b.programs {
		bw, err := p.src.Get(ctx, n)
		if err != nil {
			return nil, err
		}
		if short == "" || bw.DynLen < shortLen {
			short, shortLen = n, bw.DynLen
		}
	}
	bw, err := p.src.Get(ctx, short)
	if err != nil {
		return nil, err
	}
	req := run.Request{Workload: short, Label: p.label, Options: probeOptions()}
	direct := func(parent int) (time.Duration, error) {
		return p.log.around("pipeline.RunContext", short, parent, func(int) error {
			_, err := pipeline.New(p.cfg, bw.Prog, bw.Source()).RunContext(ctx)
			return err
		})
	}
	viaDo := func(parent int) (time.Duration, error) {
		return p.log.around("run.Do", short, parent, func(int) error {
			_, err := run.Do(ctx, req, run.WithSource(p.src))
			return err
		})
	}
	var ds, dd []float64
	_, err = p.log.around("probe.run.overhead", "", 0, func(id int) error {
		for i := 0; i < 6; i++ {
			first, second, fa, fb := direct, viaDo, &dd, &ds
			if i%2 == 1 {
				first, second, fa, fb = viaDo, direct, &ds, &dd
			}
			a, err := first(id)
			if err != nil {
				return err
			}
			b, err := second(id)
			if err != nil {
				return err
			}
			*fa, *fb = append(*fa, float64(a)), append(*fb, float64(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []named{{"run.do_overhead_pct", (median(ds)/median(dd) - 1) * 100, "%",
		fmt.Sprintf("median run.Do over median direct pipeline call, %s [%s], 6 each", short, p.label)}}, nil
}
