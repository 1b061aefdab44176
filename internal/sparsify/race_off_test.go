//go:build !race

package sparsify

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
