// rixsim runs one workload under one machine configuration and prints the
// full statistics block. It is a thin shell over the unified run API
// (internal/run): the flags assemble a run.Request, run.Do executes it
// under a signal-cancelled (and optionally deadlined) context, and the
// result can be printed as text or JSON. Ctrl-C cancels gracefully — a
// sampled run keeps the checkpoints of the windows it dispatched so
// -resume can finish it later; a second Ctrl-C hard-kills.
//
// Usage:
//
//	rixsim -bench crafty                          # base machine, no integration
//	rixsim -bench crafty -int +reverse            # full paper configuration
//	rixsim -bench gap -int +general -suppress oracle -core iw+rs
//	rixsim -file prog.s -int +reverse             # assemble and run a file
//	rixsim -bench gzip -timeout 30s -v            # deadline + live progress events
//
// Sampled simulation (checkpointed fast-forward + interval measurement):
//
//	rixsim -bench gcc -int +reverse -sample default
//	rixsim -bench gcc -int +reverse -sample 16000/600/300 -ckpt /tmp/ck
//	rixsim -bench gcc -int +reverse -sample default -ckpt /tmp/ck -resume
//
// Runs as data (the serializable request/result contract):
//
//	rixsim -bench gcc -int +reverse -sample default -dump-req > run.json
//	rixsim -req run.json -json
//
// The sampled-run flags (-jobs, -worker-dir) need -sample
// or -resume; without one they are an error, not ignored.
//
// Cross-process sampled windows (the procexec executor): workers claim
// window jobs from a shared worker directory, a -worker-dir run
// collects the results — bit-identical to the in-process scheduler:
//
//	rixsim -worker /shared/windows &                # any number, any machine
//	rixsim -worker /shared/windows -worker-idle 30s # exit when drained
//	rixsim -bench gcc -int +reverse -sample default -worker-dir /shared/windows
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rix/cmd/internal/cmdutil"
	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/workload"
)

func main() { cmdutil.Main("rixsim", body) }

func body(ctx context.Context) error {
	bench := flag.String("bench", "", "workload name (see -list)")
	file := flag.String("file", "", "assembly file to run instead of a named workload")
	integ := flag.String("int", "none", "integration preset: none|squash|+general|+opcode|+reverse")
	suppress := flag.String("suppress", "lisp", "mis-integration suppression: lisp|oracle|off")
	coreV := flag.String("core", "base", "core variant: base|rs|iw|iw+rs")
	itEntries := flag.Int("it", 1024, "integration table entries")
	itAssoc := flag.Int("assoc", 4, "integration table associativity (-1 = full)")
	sampleSpec := flag.String("sample", "",
		"interval sampling: 'default' or interval/window[/warmup] in dynamic instructions")
	ckptDir := flag.String("ckpt", "", "checkpoint directory (written during -sample, read by -resume)")
	resume := flag.Bool("resume", false, "finish (or re-measure) the run checkpointed in -ckpt")
	var sampled cmdutil.SampledFlags
	sampled.Register(flag.CommandLine)
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = none)")
	verbose := flag.Bool("v", false, "stream typed progress events to stderr")
	asJSON := flag.Bool("json", false, "print the run result as JSON instead of the stats block")
	reqFile := flag.String("req", "", "execute a serialized run.Request JSON file (overrides the config flags)")
	dumpReq := flag.Bool("dump-req", false, "print the assembled run.Request as JSON and exit without running")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()

	if err := sampled.Check(*sampleSpec != "" || *resume); err != nil {
		return err
	}
	if sampled.WorkerMode() {
		return sampled.RunWorker(ctx, *verbose)
	}

	if *list {
		for _, b := range workload.All() {
			fmt.Printf("%-8s %-12s %s\n", b.Name, b.Class, b.Description)
		}
		return nil
	}

	var req *run.Request
	if *reqFile != "" {
		data, err := os.ReadFile(*reqFile)
		if err != nil {
			return err
		}
		if req, err = run.UnmarshalRequest(data); err != nil {
			return err
		}
	} else {
		var err error
		if req, err = buildRequest(*bench, *file, sim.Options{
			Integration: *integ,
			Suppression: *suppress,
			Core:        *coreV,
			ITEntries:   *itEntries,
			ITAssoc:     *itAssoc,
		}, *sampleSpec, *ckptDir, *resume, &sampled); err != nil {
			return err
		}
	}
	if err := req.Validate(); err != nil {
		return err
	}

	if *dumpReq {
		data, err := run.MarshalRequest(req)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var opts []run.Option
	if *verbose {
		opts = append(opts, run.WithObserver(run.ObserverFunc(printEvent)))
	}
	res, err := run.Do(ctx, *req, opts...)
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	name := res.Workload
	if res.Sampled != nil {
		fmt.Println(res.Sampled.String())
		name += " (sampled windows)"
	}
	printStats(name, &res.Stats)
	return nil
}

// buildRequest assembles the run.Request the config flags describe.
func buildRequest(bench, file string, o sim.Options, sampleSpec, ckptDir string, resume bool,
	sampled *cmdutil.SampledFlags) (*run.Request, error) {
	if sampleSpec != "" || resume {
		sp := sample.DefaultSampling()
		if sampleSpec != "" {
			var err error
			if sp, err = sample.ParseSampling(sampleSpec); err != nil {
				return nil, err
			}
		}
		o.Sampling = &sp
	}
	req := &run.Request{Options: o, CheckpointDir: ckptDir, Resume: resume}
	if o.Sampling != nil {
		sampled.Apply(req)
	}
	switch {
	case file != "":
		text, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		req.Source, req.SourceName = string(text), file
	case bench != "":
		if _, ok := workload.ByName(bench); !ok {
			return nil, fmt.Errorf("unknown workload %q (try -list)", bench)
		}
		req.Workload = bench
	default:
		return nil, fmt.Errorf("one of -bench or -file is required")
	}
	return req, nil
}

// printEvent renders one typed progress event on stderr (-v).
func printEvent(e run.Event) {
	switch e.Kind {
	case run.CellStarted:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] started (%s)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Mode)
	case run.Progress:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] %d instructions\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Instrs)
	case run.WindowDone:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d done (%d measured)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window, e.Instrs)
	case run.WindowDiscarded:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d discarded (feedback misspeculation)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window)
	case run.WindowScheduled:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d scheduled\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window)
	case run.WorkerJoined:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] worker %s joined\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Worker)
	case run.LeaseClaimed:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d claimed by worker %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window, e.Worker)
	case run.ResultCollected:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d result collected (%s)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window, e.Path)
	case run.WarmShardStarted:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] warm pass started\n", time.Now().Format("15:04:05"), e.Workload, e.Label)
	case run.WarmShardDone:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] warm pass done (last boundary at instr %d)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.SpanEnd)
	case run.SlotReturned:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] window %d settled, slot returned to pool\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window)
	case run.CheckpointWritten:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] checkpoint %d -> %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Window, e.Path)
	case run.CacheHit:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] warm-set cache hit: %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Path)
	case run.CacheWritten:
		fmt.Fprintf(os.Stderr, "[%s] %s [%s] warm set cached: %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Path)
	case run.CellFinished:
		if e.Err != "" {
			fmt.Fprintf(os.Stderr, "[%s] %s [%s] failed: %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Err)
		} else {
			fmt.Fprintf(os.Stderr, "[%s] %s [%s] finished (%d retired)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Instrs)
		}
	}
}

func printStats(name string, st *pipeline.Stats) {
	fmt.Printf("workload            %s\n", name)
	fmt.Printf("retired             %d\n", st.Retired)
	fmt.Printf("cycles              %d\n", st.Cycles)
	fmt.Printf("IPC                 %.3f\n", st.IPC())
	fmt.Printf("fetched             %d (%.1f%% wrong path)\n", st.Fetched,
		100*float64(st.FetchedWrongPath)/float64(st.Fetched))
	fmt.Printf("executed            %d (%.1f%% of retired bypassed execution)\n",
		st.Executed, 100*(1-float64(st.Executed)/float64(st.Retired)))
	fmt.Printf("integration rate    %.2f%% (direct %.2f%%, reverse %.2f%%)\n",
		100*st.IntegrationRate(),
		100*float64(st.IntegratedDirect)/float64(max64(st.Retired, 1)),
		100*st.ReverseRate())
	fmt.Printf("  by type           sp-load %d, load %d, alu %d, branch %d, fp %d\n",
		st.IntType[0], st.IntType[1], st.IntType[2], st.IntType[3], st.IntType[4])
	fmt.Printf("  load int rate     %.1f%% (sp loads %.1f%%)\n",
		100*st.LoadIntegrationRate(), 100*st.SPLoadIntegrationRate())
	fmt.Printf("mis-integrations    %d (%.0f/M; loads %d, regs %d)\n",
		st.MisIntegrations, st.MisIntPerMillion(), st.MisIntLoads, st.MisIntRegs)
	fmt.Printf("branches            %d cond (%.2f%% mispredict), resolution %.1f cycles\n",
		st.CondBranches,
		100*float64(st.CondMispredicts)/float64(max64(st.CondBranches, 1)),
		st.MispredictResolutionAvg())
	fmt.Printf("loads               %d retired, %d forwarded, %d order violations\n",
		st.LoadsRetired, st.LoadsForwarded, st.LoadViolations)
	fmt.Printf("RS occupancy        %.1f avg\n", st.AvgRSOccupancy())
	fmt.Printf("squashes            %d (%d DIVA flushes)\n", st.Squashes, st.DIVAFlushes)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
