//go:build !race

package adapt

// raceEnabled reports that the race detector is compiled in; tests that
// count allocations skip under it.
const raceEnabled = false
