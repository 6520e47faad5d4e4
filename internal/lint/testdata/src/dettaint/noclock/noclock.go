// Package noclock stands in for the fault, watchdog, snapshot and
// telemetry packages, where any reference to package time is a finding.
package noclock

import "time"

// Window holds a watchdog bound as wall-clock-shaped values.
type Window struct {
	Span  time.Duration
	Start time.Time
}

// Expired paces a check off the host clock instead of the cycle counter.
func (w Window) Expired() bool {
	return time.Until(time.Now().Add(w.Span)) <= 0 && time.Millisecond > 0
}
