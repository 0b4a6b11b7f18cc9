// Package simtime provides the simulated time base and deterministic
// randomness used by every substrate in the DIADS reproduction.
//
// All simulation timestamps are expressed as seconds since the simulation
// epoch (Time). Using a plain float64 keeps the statistical machinery
// (kernel density estimation, interval overlap arithmetic) free of
// conversions while still allowing human-readable rendering through
// Time.Clock.
package simtime

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in seconds since the simulation epoch.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration float64

// Common durations.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Clock renders t as a day/hh:mm:ss wall-clock label, with day 0 starting
// at the simulation epoch. It is used by the console screens.
func (t Time) Clock() string {
	s := float64(t)
	neg := ""
	if s < 0 {
		neg = "-"
		s = -s
	}
	day := int(s / float64(Day))
	s -= float64(day) * float64(Day)
	h := int(s / 3600)
	s -= float64(h) * 3600
	m := int(s / 60)
	s -= float64(m) * 60
	return fmt.Sprintf("%sd%d %02d:%02d:%02.0f", neg, day, h, m, s)
}

// String implements fmt.Stringer.
func (t Time) String() string { return t.Clock() }

// Seconds returns d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String implements fmt.Stringer.
func (d Duration) String() string {
	s := float64(d)
	switch {
	case math.Abs(s) >= float64(Hour):
		return fmt.Sprintf("%.2fh", s/float64(Hour))
	case math.Abs(s) >= float64(Minute):
		return fmt.Sprintf("%.2fm", s/float64(Minute))
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// Interval is a half-open span [Start, End) of simulated time.
type Interval struct {
	Start Time
	End   Time
}

// NewInterval returns the interval [start, end); it panics if end < start,
// which always indicates a programming error in the simulator.
func NewInterval(start, end Time) Interval {
	if end < start {
		panic(fmt.Sprintf("simtime: interval end %v before start %v", end, start))
	}
	return Interval{Start: start, End: end}
}

// Length returns the duration of the interval.
func (iv Interval) Length() Duration { return iv.End.Sub(iv.Start) }

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Overlap returns the length of the intersection of iv and other.
func (iv Interval) Overlap(other Interval) Duration {
	lo := math.Max(float64(iv.Start), float64(other.Start))
	hi := math.Min(float64(iv.End), float64(other.End))
	if hi <= lo {
		return 0
	}
	return Duration(hi - lo)
}

// Overlaps reports whether the two intervals intersect.
func (iv Interval) Overlaps(other Interval) bool { return iv.Overlap(other) > 0 }

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Start.Clock(), iv.End.Clock())
}
