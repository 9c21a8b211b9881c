package cmdutil

import (
	"context"
	"flag"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestWithSignalsCancelsOnSignal: a SIGINT delivered to the process
// cancels the derived context.
func TestWithSignalsCancelsOnSignal(t *testing.T) {
	ctx, stop := WithSignals(context.Background())
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
		if ctx.Err() != context.Canceled {
			t.Errorf("ctx.Err() = %v", ctx.Err())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("context not cancelled after SIGINT")
	}
}

// TestWithSignalsStopIdempotent: stop releases the handler and is safe
// to call repeatedly (the Main defer plus an explicit call).
func TestWithSignalsStopIdempotent(t *testing.T) {
	ctx, stop := WithSignals(context.Background())
	stop()
	stop()
	select {
	case <-ctx.Done():
	default:
		t.Error("stop did not cancel the context")
	}
}

// TestRunBodyExitCodes pins the error-to-status mapping.
func TestRunBodyExitCodes(t *testing.T) {
	if got := runBody("t", func(ctx context.Context) error { return nil }); got != 0 {
		t.Errorf("success status = %d", got)
	}
	if got := runBody("t", func(ctx context.Context) error { return context.Canceled }); got != interruptExit {
		t.Errorf("cancel status = %d, want %d", got, interruptExit)
	}
	if got := runBody("t", func(ctx context.Context) error { return context.DeadlineExceeded }); got != 1 {
		t.Errorf("timeout status = %d, want 1", got)
	}
	// Deferred cleanup must run before the status is returned (the old
	// per-tool os.Exit helpers skipped defers).
	cleaned := false
	runBody("t", func(ctx context.Context) error {
		defer func() { cleaned = true }()
		return context.Canceled
	})
	if !cleaned {
		t.Error("deferred cleanup skipped")
	}
}

// TestSampledFlagsNeedSampling: the sampled-only flags are rejected,
// naming the flag, when nothing is sampled, and accepted when something
// is or in worker mode. -worker and -worker-dir exclude each other, and
// the deleted -coordinator and cache flags no longer parse.
func TestSampledFlagsNeedSampling(t *testing.T) {
	cases := []struct {
		args    []string
		sampled bool
		want    string // error substring; "" = accepted
	}{
		{[]string{"-jobs", "7"}, false, "-jobs only"},
		{[]string{"-worker-dir", "d"}, false, "-worker-dir only"},
		{[]string{"-worker-dir", "d", "-jobs", "7"}, false, "-jobs only"},
		{nil, false, ""},
		{[]string{"-jobs", "7"}, true, ""},
		{[]string{"-worker-dir", "d"}, true, ""},
		{[]string{"-worker-dir", "d", "-jobs", "7"}, true, ""},
		{[]string{"-worker", "d", "-jobs", "2"}, false, ""},
		{[]string{"-worker", "d", "-worker-dir", "d"}, false, "-worker and -worker-dir are mutually exclusive"},
		{[]string{"-worker", "d", "-worker-dir", "d"}, true, "-worker and -worker-dir are mutually exclusive"},
	}
	for _, c := range cases {
		var f SampledFlags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := f.Check(c.sampled)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v (sampled=%v): unexpected error %v", c.args, c.sampled, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%v (sampled=%v): err = %v, want one starting %q", c.args, c.sampled, err, c.want)
		}
	}

	for _, args := range [][]string{{"-coordinator"}, {"-ckpt-cache", "d"}, {"-ckpt-cache-mb", "5"}, {"-ckpt-cache-age", "1h"}} {
		var f SampledFlags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v: deleted flag still parses", args)
		}
	}
}
