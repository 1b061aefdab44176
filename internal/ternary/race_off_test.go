//go:build !race

package ternary

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
