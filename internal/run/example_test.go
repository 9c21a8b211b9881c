package run_test

import (
	"context"
	"fmt"
	"log"

	"rix/internal/run"
	"rix/internal/sample"
	"rix/internal/sim"
)

// ExampleDo_observer runs one full-detail simulation with a live
// observer: run.Do executes the request and the ObserverFunc receives
// typed lifecycle events as the cell progresses. The example keys its
// output off event structure rather than raw counts so it documents
// the contract, not one workload build's numbers.
func ExampleDo_observer() {
	req := run.Request{
		Workload: "gzip",
		Options:  sim.Options{Integration: sim.IntReverse},
	}
	obs := run.ObserverFunc(func(e run.Event) {
		switch e.Kind {
		case run.CellStarted:
			fmt.Printf("%s [%s] started in %s mode\n", e.Workload, e.Label, e.Mode)
		case run.CellFinished:
			fmt.Printf("%s [%s] finished, retired instructions reported: %v\n",
				e.Workload, e.Label, e.Instrs > 0)
		}
	})
	res, err := run.Do(context.Background(), req, run.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPC above zero: %v\n", res.Stats.IPC() > 0)
	// Output:
	// gzip [+reverse/lisp] started in detail mode
	// gzip [+reverse/lisp] finished, retired instructions reported: true
	// IPC above zero: true
}

// ExampleDo_schedulerTelemetry shares one window scheduler with
// a sampled run (run.WithScheduler — the pool the runner engine passes
// to every cell of a matrix) and reads the run's speculation economy
// two ways: the deterministic counters on Result.Sampled, and the
// window-discarded / slot-returned observer events that mirror them.
func ExampleDo_schedulerTelemetry() {
	sp := sample.DefaultSampling()
	req := run.Request{
		Workload: "gzip",
		Options:  sim.Options{Integration: sim.IntReverse, Sampling: &sp},
		Jobs:     4,
	}
	sched := sample.NewScheduler(4)
	defer sched.Close()

	var discarded, returned uint64
	obs := run.ObserverFunc(func(e run.Event) {
		switch e.Kind {
		case run.WindowDiscarded: // a misspeculated boot, thrown away
			discarded++
		case run.SlotReturned: // the run is draining; a slot rejoined the pool
			returned++
		}
	})
	res, err := run.Do(context.Background(), req, run.WithObserver(obs), run.WithScheduler(sched))
	if err != nil {
		log.Fatal(err)
	}
	s := res.Sampled
	fmt.Printf("every dispatch settled or discarded: %v\n",
		s.WindowsDispatched == s.WindowsSettled+s.WindowsDiscarded)
	fmt.Printf("settled count matches measured windows: %v\n",
		s.WindowsSettled == uint64(len(s.Windows)))
	fmt.Printf("observer saw every discard: %v\n", discarded == s.WindowsDiscarded)
	fmt.Printf("slots returned to the pool: %v\n", returned > 0)
	// Output:
	// every dispatch settled or discarded: true
	// settled count matches measured windows: true
	// observer saw every discard: true
	// slots returned to the pool: true
}
