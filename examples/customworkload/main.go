// The customworkload example uses the synthetic program generator to
// sweep one workload property — call density — and shows how reverse
// integration's contribution grows with it, which is the mechanism behind
// the paper's call-intensive vs call-poor benchmark split.
package main

import (
	"context"
	"fmt"
	"log"

	"rix/internal/run"
	"rix/internal/sim"
	"rix/internal/workload"
)

// builtSource resolves every workload name to one pre-built workload —
// the run.WithSource seam that lets run.Do execute programs outside the
// registry, such as this example's synthetic sweep points.
type builtSource struct{ bw workload.Built }

func (s builtSource) Get(context.Context, string) (workload.Built, error) { return s.bw, nil }

func main() {
	ctx := context.Background()
	fmt.Printf("%-14s %10s %10s %10s %10s\n",
		"call density", "rate%", "reverse%", "speedup%", "IPC")
	for _, callEvery := range []int{0, 12, 6, 3} {
		b := workload.Synth(workload.SynthParams{
			Seed:       42,
			Iters:      1500,
			BodyOps:    12,
			CallEvery:  callEvery,
			MemFrac:    0.2,
			BranchFrac: 0.15,
			Invariants: 1,
		})
		bw, err := b.BuildContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		src := run.WithSource(builtSource{bw})
		baseRes, err := run.Do(ctx, run.Request{
			Workload: b.Name, Options: sim.Options{Integration: sim.IntNone},
		}, src)
		if err != nil {
			log.Fatal(err)
		}
		fullRes, err := run.Do(ctx, run.Request{
			Workload: b.Name, Options: sim.Options{Integration: sim.IntReverse},
		}, src)
		if err != nil {
			log.Fatal(err)
		}
		base, full := &baseRes.Stats, &fullRes.Stats
		label := "none"
		if callEvery > 0 {
			label = fmt.Sprintf("1 per %d ops", callEvery)
		}
		fmt.Printf("%-14s %9.1f%% %9.1f%% %+9.1f%% %10.2f\n",
			label,
			100*full.IntegrationRate(), 100*full.ReverseRate(),
			100*(full.IPC()/base.IPC()-1), base.IPC())
	}
}
