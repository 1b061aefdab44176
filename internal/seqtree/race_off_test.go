//go:build !race

package seqtree

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
