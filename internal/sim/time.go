// Package sim provides the discrete-event simulation kernel on which the
// whole btpan reproduction runs: a virtual clock, an event calendar, and
// deterministic named random-number streams.
//
// All other packages express durations in sim.Time (virtual nanoseconds) and
// never consult the wall clock, which makes campaigns bit-reproducible for a
// given seed and lets 18 months of simulated operation run in seconds.
package sim

import "time"

// Time is a virtual instant, measured in nanoseconds since the start of the
// simulation. It is also used for durations (differences of instants), which
// mirrors how time.Duration relates to time.Time and keeps arithmetic simple
// inside the kernel.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000 * Nanosecond
	Millisecond Time = 1_000 * Microsecond
	Second      Time = 1_000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour

	// Slot is the Bluetooth baseband time slot: 625 microseconds.
	Slot Time = 625 * Microsecond
)

// Never is a sentinel instant later than any schedulable event.
const Never Time = Time(1<<63 - 1)

// Duration converts t to a time.Duration. Time and time.Duration share the
// nanosecond unit, so the conversion is exact.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Slots reports how many whole baseband slots fit in t.
func (t Time) Slots() int64 { return int64(t / Slot) }

// String formats the instant using time.Duration notation, with Never
// rendered symbolically.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return t.Duration().String()
}

// Seconds builds a Time from a floating-point number of seconds. It is the
// inverse of Time.Seconds and is used by calibration tables that express
// recovery durations in seconds.
func Seconds(s float64) Time { return Time(s * float64(Second)) }
