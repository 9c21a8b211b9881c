package sample

import (
	"testing"

	"rix/internal/testutil"
)

// TestMain fails the package if the parallel window tests leak
// goroutines: runParallel must join every window goroutine it starts,
// even on error paths.
func TestMain(m *testing.M) {
	testutil.VerifyNoLeaks(m)
}
