//go:build race

package batch

// raceEnabled reports whether the race detector is instrumenting this test
// binary (its instrumentation allocates, so allocation-regression gates are
// skipped under -race while the exercised code paths still run).
const raceEnabled = true
