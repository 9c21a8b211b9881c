// Package cmdutil is the shared CLI harness for the rix tools: one exit
// path for errors (so deferred cleanup always runs — the tools used to
// hand-roll os.Exit(1) helpers that silently skipped defers), and
// signal-driven context cancellation with the conventional two-signal
// contract (first SIGINT/SIGTERM cancels gracefully, a second
// hard-kills).
package cmdutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// interruptExit is the conventional exit status for SIGINT (128 + 2).
const interruptExit = 130

// Main runs a tool's body under a signal-cancelled context and exits
// with its status: 0 on success, interruptExit (130) when the body
// ended because a signal cancelled the context, and 1 on any other
// error — including a -timeout deadline, reported as "tool: timed
// out". The body returns rather than exiting, so its deferred cleanup
// (closing files, flushes) always runs — os.Exit happens only
// here, after the body is done.
func Main(tool string, body func(ctx context.Context) error) {
	os.Exit(runBody(tool, body))
}

func runBody(tool string, body func(ctx context.Context) error) int {
	ctx, stop := WithSignals(context.Background())
	defer stop()
	err := body(ctx)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", tool)
		return interruptExit
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "%s: timed out\n", tool)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		return 1
	}
}

// WithSignals derives a context cancelled by the first SIGINT or
// SIGTERM. A second signal does not wait for graceful shutdown: it
// prints a note and exits immediately with the interrupt status. The
// returned stop function releases the signal handler (idempotent).
func WithSignals(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	quit := make(chan struct{})
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel()
		case <-quit:
			return
		}
		select {
		case <-ch:
			fmt.Fprintln(os.Stderr, "second interrupt: exiting immediately")
			os.Exit(interruptExit)
		case <-quit:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(quit)
			cancel()
		})
	}
	return ctx, stop
}
