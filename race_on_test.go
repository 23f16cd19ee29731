//go:build race

package capi_test

// raceEnabled reports that the race detector is compiled in; tests that
// count allocations skip under it.
const raceEnabled = true
