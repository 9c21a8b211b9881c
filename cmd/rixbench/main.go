// rixbench regenerates the paper's tables and figures by enumerating
// the experiment-spec registry (internal/runner, populated by
// internal/experiments). The engine executes every cell through the
// unified run API under a signal-cancelled context: Ctrl-C (or
// -timeout) stops scheduling and interrupts in-flight simulations at
// their next poll boundary; a second Ctrl-C hard-kills.
//
// Usage:
//
//	rixbench -list                  # print registered specs
//	rixbench -suite fig4            # Figure 4: extension impact
//	rixbench -suite fig5            # Figure 5: integration stream analysis
//	rixbench -suite fig6            # Figure 6: IT associativity and size
//	rixbench -suite fig7            # Figure 7: reduced-complexity cores
//	rixbench -suite diag            # §3.2/§3.5 scalar diagnostics
//	rixbench -suite ablate          # design-choice ablations
//	rixbench -suite all
//	rixbench -suite fig4 -bench gzip,crafty -csv
//	rixbench -suite all -json       # machine-readable results
//	rixbench -suite all -sample default         # interval-sampled matrix (fast)
//	rixbench -suite fig4 -sample 16000/600/300  # explicit interval/window/warmup
//	rixbench -suite all -timeout 10m -v         # deadline + per-cell events
//
// The sampled-run flags (-jobs, -worker-dir) need -sample;
// without it they are an error, not ignored.
//
// Cross-process sampled matrices: window jobs execute on `-worker`
// processes (rixbench or rixsim, any machine sharing the directory),
// with estimates bit-identical to the in-process pool:
//
//	rixbench -worker /shared/windows &
//	rixbench -suite fig4 -sample default -worker-dir /shared/windows
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"rix/cmd/internal/cmdutil"
	_ "rix/internal/experiments" // registers the paper's specs
	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
)

func main() { cmdutil.Main("rixbench", body) }

func body(ctx context.Context) error {
	suite := flag.String("suite", "all", "comma-separated spec ids, or 'all' (see -list)")
	benches := flag.String("bench", "", "comma-separated workload subset (default: full paper suite)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	list := flag.Bool("list", false, "list registered specs and exit")
	parallel := flag.Int("j", 0, "max parallel simulations (default: NumCPU)")
	var sampled cmdutil.SampledFlags
	sampled.Register(flag.CommandLine)
	sampleSpec := flag.String("sample", "",
		"run interval-sampled variants of the selected specs: 'default' or interval/window[/warmup]")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = none)")
	verbose := flag.Bool("v", false, "stream per-cell progress events to stderr")
	flag.Parse()

	if err := sampled.Check(*sampleSpec != ""); err != nil {
		return err
	}
	if sampled.WorkerMode() {
		return sampled.RunWorker(ctx, *verbose)
	}

	var sampling *sample.Sampling
	if *sampleSpec != "" {
		sp, err := sample.ParseSampling(*sampleSpec)
		if err != nil {
			return err
		}
		sampling = &sp
	}

	if *list {
		for _, s := range runner.Specs() {
			fmt.Printf("%-8s %s\n", s.ID, s.Description)
		}
		return nil
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	engine, err := runner.NewEngine(names)
	if err != nil {
		return err
	}
	if *parallel > 0 {
		engine.Parallel = *parallel
	}
	sampled.Configure(engine)
	if *verbose {
		engine.Observer = newCellLogger()
	}

	selected := strings.Split(*suite, ",")
	if *suite == "all" {
		selected = runner.IDs()
	}

	var suites []runner.Suite
	for _, id := range selected {
		s, err := engine.RunSuite(ctx, id, sampling)
		if err != nil {
			return err
		}
		switch {
		case *asJSON:
			suites = append(suites, s)
		case *csv:
			if sampling != nil {
				fmt.Printf("# %s\n", s.Description)
			}
			for _, t := range s.Tables {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			}
		default:
			if sampling != nil {
				fmt.Printf("## %s\n\n", s.Description)
			}
			for _, t := range s.Tables {
				fmt.Println(t.String())
			}
		}
	}
	if *asJSON {
		return runner.WriteJSON(os.Stdout, suites)
	}
	return nil
}

// cellLogger renders cell lifecycle events on stderr. Cells complete
// concurrently, so the logger serializes writes.
type cellLogger struct {
	mu sync.Mutex
}

func newCellLogger() *cellLogger { return &cellLogger{} }

func (l *cellLogger) Observe(e run.Event) {
	//rix:partial — only cell lifecycle matters in a matrix run
	switch e.Kind {
	case run.CellStarted, run.CellFinished:
	default:
		return // per-instruction progress is too chatty for a matrix run
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case e.Kind == run.CellStarted:
		fmt.Fprintf(os.Stderr, "[%s] start  %s [%s]\n", time.Now().Format("15:04:05"), e.Workload, e.Label)
	case e.Err != "":
		fmt.Fprintf(os.Stderr, "[%s] FAIL   %s [%s]: %s\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Err)
	default:
		fmt.Fprintf(os.Stderr, "[%s] done   %s [%s] (%d retired)\n", time.Now().Format("15:04:05"), e.Workload, e.Label, e.Instrs)
	}
}
