// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate under the simulated MPI, PVFS2, and
// MPI-IO layers: virtual time, an event calendar, processes written as
// resumable state machines (Machine) that the kernel steps one at a time on
// its own goroutine, condition signals, and FCFS resources with both
// blocking and callback interfaces.
//
// Determinism: all wakeups flow through a single event calendar ordered by
// (time, insertion sequence), so identical inputs yield identical schedules.
//
// Tests that want straight-line process bodies use the destest
// subpackage, which adapts a goroutine body to a Machine.
package des

import "fmt"

// Time is a point in virtual time, in nanoseconds. The zero Time is the
// simulation epoch. Durations are also expressed as Time.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// FromSeconds converts a floating-point duration in seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats t as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// BytesOver returns the time needed to move n bytes at rate bytesPerSec.
// A non-positive rate yields zero time (infinite bandwidth).
func BytesOver(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}
