// Package simdev provides a virtual-time simulation of NVMe storage devices.
//
// The PrismDB paper evaluates on real Intel Optane (NVM) and QLC NAND
// hardware. This package substitutes a discrete queueing model: each device
// has a fixed per-request latency, sequential bandwidth, and a number of
// internal channels that serve requests in parallel. Workers carry logical
// clocks; issuing an I/O against a device advances the worker's clock by the
// service time plus any queueing delay caused by other requests occupying
// the device's channels. Because all results in the paper derive from the
// relative latency/bandwidth/endurance gap between tiers, the simulation
// preserves the shape of every experiment while running in virtual time.
package simdev

import "time"

// Clock is a logical clock owned by a single worker goroutine. It is not
// safe for concurrent use; each partition worker and each simulated
// background job owns its own Clock.
type Clock struct {
	now int64 // nanoseconds since simulation start
	bg  bool  // background priority: device I/O uses the background lanes
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// NewBGClock returns a background-priority clock. Device accesses issued
// against it are served from a reserved slice of the device's channels, so
// a background job running ahead in virtual time cannot monopolize the
// lanes foreground requests use — mirroring the I/O prioritization real
// engines apply to compaction traffic.
func NewBGClock() *Clock { return &Clock{bg: true} }

// Background reports whether this is a background-priority clock.
func (c *Clock) Background() bool { return c.bg }

// Now returns the current logical time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d. Negative durations are ignored so
// cost models may safely produce zero or rounded-down charges.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += int64(d)
	}
}

// AdvanceTo moves the clock forward to t if t is in the future. It returns
// the stall duration (zero if t was not in the future). Engines use this to
// model waiting on a background compaction or on space to become available.
func (c *Clock) AdvanceTo(t int64) time.Duration {
	if t > c.now {
		d := t - c.now
		c.now = t
		return time.Duration(d)
	}
	return 0
}

// Fork returns a copy of c, at c's time and priority, for one of a batch of
// independent requests issued together. Charging each request to its own
// fork of the issue clock lets none wait for another: the device's channels
// alone decide how they overlap. The issuer then advances to each fork's
// time (AdvanceTo never moves it back), so it waits for the slowest request,
// not for their sum. A fork is a value, so a batch allocates nothing.
func (c *Clock) Fork() Clock { return *c }

// Elapsed returns the time since simulation start as a Duration.
func (c *Clock) Elapsed() time.Duration { return time.Duration(c.now) }
