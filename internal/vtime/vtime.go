// Package vtime provides deterministic virtual clocks.
//
// All measurements in this repository are expressed in virtual nanoseconds:
// simulated function bodies, measurement probes and MPI operations advance a
// per-rank Clock by modelled costs. Virtual time makes the evaluation
// deterministic and portable — the paper's evaluation compares overhead
// *ratios*, which survive the substitution of wall-clock time by an explicit
// cost accounting.
package vtime

import "fmt"

// Handy duration constants in virtual nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000 * Nanosecond
	Millisecond int64 = 1000 * Microsecond
	Second      int64 = 1000 * Millisecond
)

// Clock is a monotonically non-decreasing virtual clock. The zero value is a
// clock at time zero, ready to use. Clock is not safe for concurrent use;
// each simulated rank owns exactly one clock.
//
// A clock can be pinned (Pin) for replay: cost charges through
// Advance/AdvanceTo become no-ops and only Jump moves it. A pinned clock is
// what the async event pipeline hands backends when it replays recorded
// events off the hot path — the backend's probe costs must not advance time
// a second time, and the recorded timestamps must flow through exactly.
type Clock struct {
	now    int64
	pinned bool
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds. Negative d is ignored so
// that cost models can never move time backwards. On a pinned clock Advance
// is a no-op.
func (c *Clock) Advance(d int64) {
	if d > 0 && !c.pinned {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to time t. If t is in the past the clock
// is unchanged, preserving monotonicity. It reports whether the clock moved.
// On a pinned clock AdvanceTo is a no-op.
func (c *Clock) AdvanceTo(t int64) bool {
	if t > c.now && !c.pinned {
		c.now = t
		return true
	}
	return false
}

// Pin freezes the clock against cost charges: after Pin, only Jump moves it.
// Pinning is one-way and intended for replay clocks that track recorded
// timestamps.
func (c *Clock) Pin() { c.pinned = true }

// Jump sets the clock to the given time, forwards or backwards, regardless
// of pinning. Replay owners use it to align the clock with each recorded
// event's timestamp; ordinary simulation code never calls it.
func (c *Clock) Jump(t int64) { c.now = t }

// Seconds returns the current time converted to (virtual) seconds.
func (c *Clock) Seconds() float64 { return float64(c.now) / float64(Second) }

// String formats the clock value as seconds with millisecond resolution.
func (c *Clock) String() string { return FormatSeconds(c.now) }

// FormatSeconds renders a virtual-nanosecond duration as "12.345s".
func FormatSeconds(ns int64) string {
	return fmt.Sprintf("%.3fs", float64(ns)/float64(Second))
}

// Seconds converts a floating-point second count to virtual nanoseconds.
func Seconds(s float64) int64 { return int64(s * float64(Second)) }
