//go:build !race

package graph

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
