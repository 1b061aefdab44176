//go:build !race

package tourney

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
