//go:build !race

package batch

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
