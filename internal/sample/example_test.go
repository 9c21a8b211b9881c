package sample_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/workload"
)

// ExampleContinue checkpoints a sampled run and then reproduces it from
// disk: Run with CheckpointDir writes one checkpoint per window
// boundary (doc/FORMATS.md), and Continue re-runs every checkpointed
// window — in parallel, fast-forwarding only from the newest
// checkpoint to the program's end — with an aggregate bit-identical to
// the direct run's. On an interrupted run's directory the same call
// finishes the run.
func ExampleContinue() {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.BuildContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := sim.Options{Integration: sim.IntReverse}.Config()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "rix-ckpt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	sc := sample.Config{CheckpointDir: dir}
	direct, err := sample.Run(ctx, bw.Prog, bw.DynLen, cfg, sc)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := sample.Continue(ctx, bw.Prog, bw.DynLen, cfg, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every window re-ran from its checkpoint: %v\n",
		len(resumed.Windows) == len(direct.Windows))
	fmt.Printf("aggregate bit-identical to the direct run: %v\n",
		resumed.Agg == direct.Agg)
	// Output:
	// every window re-ran from its checkpoint: true
	// aggregate bit-identical to the direct run: true
}
