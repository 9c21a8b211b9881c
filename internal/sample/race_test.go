//go:build race

package sample_test

// raceEnabled trims the heaviest property test to two workloads under
// the race detector, which slows simulation about tenfold.
const raceEnabled = true
