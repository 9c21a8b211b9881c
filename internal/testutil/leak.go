// Package testutil holds shared test harness helpers. It may be
// imported only from _test.go files.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// VerifyNoLeaks wraps a package's tests with a goroutine-leak check —
// call it from TestMain:
//
//	func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }
//
// It snapshots the goroutine count before the tests, runs them, and
// fails the package if the count has not settled back down afterwards.
// Workers with graceful shutdown (the sample scheduler's pool, the
// runner's parallel cells) need a settle window, so the check retries
// before declaring a leak and dumps all goroutine stacks when it does.
func VerifyNoLeaks(m interface{ Run() int }) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if leaked, stacks := settle(before, time.Second); leaked {
			fmt.Fprintf(os.Stderr,
				"testutil: goroutine leak: %d goroutines before the tests, %d after settling\n\n%s\n",
				before, runtime.NumGoroutine(), stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// NoLeaks checks that every goroutine a test starts is gone when the
// test ends, not only when the package's tests all finish — call it
// first in the test:
//
//	func TestX(t *testing.T) { testutil.NoLeaks(t); ... }
//
// It snapshots the goroutine count, and a t.Cleanup (which runs after
// the test's own cleanups, such as closing its pools) waits up to 3 s —
// a run's goroutines exit slowly under -race on a loaded host — for the
// count to settle back and fails the test with every goroutine's stack
// if it does not. Tests calling it must not run in parallel with
// others, whose goroutines would count against them.
func NoLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if leaked, stacks := settle(before, 3*time.Second); leaked {
			t.Errorf("testutil: goroutine leak: %d goroutines before the test, %d after settling\n\n%s",
				before, runtime.NumGoroutine(), stacks)
		}
	})
}

// settle polls until the goroutine count returns to the baseline or
// budget runs out, returning the final verdict and, on a leak, every
// goroutine stack.
func settle(baseline int, budget time.Duration) (leaked bool, stacks []byte) {
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= baseline {
			return false, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	return true, buf[:runtime.Stack(buf, true)]
}
