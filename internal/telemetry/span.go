package telemetry

import (
	"time"

	"tpcxiot/internal/histogram"
)

// Timer measures durations of one named pipeline stage into a registry
// histogram. Hot paths resolve their Timer once at construction time; each
// measurement is then one Start/End pair with no map lookups. A nil *Timer
// (from a nil registry) measures nothing and never reads the clock.
type Timer struct {
	h *histogram.Histogram
}

// Timer returns the named stage timer, creating its histogram on first use.
// A nil registry returns a nil (no-op) timer.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name)}
}

// Start opens a span. On a nil timer the returned span is inert and Start
// does not read the clock, keeping disabled-telemetry hot paths clean.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{h: t.h, start: time.Now()}
}

// Span is one in-flight timed operation. End it exactly once; an inert span
// (from a nil timer) may be ended safely.
type Span struct {
	h     *histogram.Histogram
	start time.Time
}

// End records the span's elapsed time. No-op on an inert span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Record(time.Since(s.start).Nanoseconds())
}
