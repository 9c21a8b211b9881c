// The complexity example reproduces the paper's §3.5 trade-off on one
// workload: integration as a low-complexity substitute for execution
// bandwidth and issue buffering. It compares the base core against cores
// with half the reservation stations (RS), reduced issue width (IW), and
// both (IW+RS), each with and without integration.
package main

import (
	"context"
	"fmt"
	"log"

	"rix/internal/run"
	"rix/internal/sim"
	"rix/internal/workload"
)

// do executes one configuration of the workload through the unified run
// API and returns its IPC. Each call mints an independent golden-trace
// stream, so runs never share consumable state.
func do(ctx context.Context, bench string, o sim.Options) float64 {
	res, err := run.Do(ctx, run.Request{Workload: bench, Options: o})
	if err != nil {
		log.Fatal(err)
	}
	return res.Stats.IPC()
}

func main() {
	ctx := context.Background()
	bench := "vortex"
	b, ok := workload.ByName(bench)
	if !ok {
		log.Fatalf("unknown workload %s", bench)
	}
	bw, err := b.BuildContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (%s), %d dynamic instructions\n\n",
		b.Name, b.Description, bw.DynLen)

	cores := []struct {
		name, core string
	}{
		{"base: 4-way issue, 40 RS", sim.CoreBase},
		{"RS:   4-way issue, 20 RS", sim.CoreRS},
		{"IW:   3-way issue, 1 ld/st port", sim.CoreIW},
		{"IW+RS: both reductions", sim.CoreIWRS},
	}

	baseIPC := do(ctx, bench, sim.Options{Core: sim.CoreBase, Integration: sim.IntNone})
	fmt.Printf("%-34s %10s %12s %14s\n", "core", "plain", "+integration", "int. recovers")
	for _, c := range cores {
		plainIPC := do(ctx, bench, sim.Options{Core: c.core, Integration: sim.IntNone})
		integIPC := do(ctx, bench, sim.Options{Core: c.core, Integration: sim.IntReverse})
		dPlain := 100 * (plainIPC/baseIPC - 1)
		dInteg := 100 * (integIPC/baseIPC - 1)
		fmt.Printf("%-34s %+9.1f%% %+11.1f%% %13.1f%%\n",
			c.name, dPlain, dInteg, dInteg-dPlain)
	}
	fmt.Println("\n(percentages are IPC deltas vs the un-integrated base core;")
	fmt.Println(" the paper's claim: integration compensates for a 25% issue-width")
	fmt.Println(" or 50% issue-buffer reduction)")
}
