// Example: the unified run API (internal/run) end to end — a simulation
// described as a JSON value, executed under a cancellable context,
// observed live through typed events, with a JSON-serializable result.
//
// The program runs the gzip workload twice through run.Do:
//
//  1. A sampled run with checkpoints and an observer: the request is
//     round-tripped through JSON first (proving a run is just data),
//     window and checkpoint events stream as it executes.
//
//  2. The same run again with the context cancelled from an observer
//     after the second measurement window — then a Resume request
//     finishes the interrupted run from the checkpoints it left and the
//     program verifies the aggregate matches the uninterrupted run
//     exactly (the resume-after-cancel guarantee).
//
// Run it with: go run ./examples/runapi
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"reflect"

	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sim"
)

func main() {
	dir, err := os.MkdirTemp("", "runapi-ckpt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sp := sample.DefaultSampling()
	req := run.Request{
		Workload:      "gzip",
		Options:       sim.Options{Integration: sim.IntReverse, Sampling: &sp},
		CheckpointDir: dir,
	}

	// A run is a value: serialize, deserialize (validated eagerly), run.
	data, err := run.MarshalRequest(&req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request as data:\n%s\n\n", data)
	parsed, err := run.UnmarshalRequest(data)
	if err != nil {
		log.Fatal(err)
	}

	obs := run.ObserverFunc(func(e run.Event) {
		//rix:partial — the example prints just two illustrative kinds
		switch e.Kind {
		case run.WindowDone:
			fmt.Printf("  event: window %2d done (%d instructions measured)\n", e.Window, e.Instrs)
		case run.CellFinished:
			fmt.Printf("  event: %s [%s] finished\n", e.Workload, e.Label)
		}
	})
	fmt.Println("sampled run with live observation:")
	uninterrupted, err := run.Do(context.Background(), *parsed, run.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\nwall clock: %v\n\n", uninterrupted.Sampled, uninterrupted.Wall)

	// Interrupt the same run after window 1, from inside the run itself.
	dir2, err := os.MkdirTemp("", "runapi-ckpt2-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir2)
	req.CheckpointDir = dir2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := run.ObserverFunc(func(e run.Event) {
		if e.Kind == run.WindowDone && e.Window == 1 {
			cancel()
		}
	})
	_, err = run.Do(ctx, req, run.WithObserver(killer))
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("interrupted run returned %v, want context.Canceled — the cancellation path was not exercised", err)
	}
	fmt.Printf("cancelled run returned: %v\n", err)

	// Finish it from the checkpoints it left.
	req.Resume = true
	resumed, err := run.Do(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Stats, uninterrupted.Stats) {
		log.Fatal("resumed aggregate differs from the uninterrupted run")
	}
	fmt.Printf("resumed %d windows; aggregate is bit-identical to the uninterrupted run\n",
		len(resumed.Sampled.Windows))
	fmt.Printf("IPC %.3f, integration rate %.2f%%\n",
		resumed.Sampled.IPC, 100*resumed.Sampled.Rate)
}
