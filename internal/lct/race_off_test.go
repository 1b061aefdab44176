//go:build !race

package lct

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
