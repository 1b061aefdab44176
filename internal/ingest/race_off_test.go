//go:build !race

package ingest

// raceEnabled reports whether the race detector is instrumenting this test
// binary.
const raceEnabled = false
