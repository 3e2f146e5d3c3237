// Package obs is the flight recorder: span tracing, time-series telemetry
// and latency-anatomy plumbing for the simulated machine.
//
// Everything in this package is strictly out of band. Recorders and
// telemetry observe the simulation from the host side — they consume no
// simulated time, charge no energy, draw no random numbers and schedule no
// kernel events — so every simulated result (and therefore every pinned
// golden digest) is bit-identical with observation on or off. The package
// imports only internal/sim, and only for its time types and the sampler
// hook; it never touches a heap, queue or process.
//
// Determinism: spans are recorded from the simulation's one event loop and
// exported in (start time, record order) — a total order that is a pure
// function of the simulation, never of host scheduling, so traces are
// identical at GOMAXPROCS=1 and N. Telemetry samples are exported in
// (time, socket) order.
package obs

import "bionicdb/internal/sim"

// DefaultTraceCap is the span ring capacity when Options leaves TraceCap
// zero.
const DefaultTraceCap = 1 << 16

// DefaultMetricsTick is the telemetry sampling tick when Options leaves
// MetricsTick zero: fine enough to resolve queue-depth transients inside a
// multi-millisecond run, coarse enough to stay a few hundred samples per
// socket.
const DefaultMetricsTick = 100 * sim.Microsecond

// Options selects which observer faces a run attaches. A nil *Options (the
// default everywhere) attaches nothing and costs nothing.
type Options struct {
	// Trace records spans from the instrumented layers into a ring buffer,
	// exportable as Chrome trace_event JSON.
	Trace bool
	// TraceCap bounds the span ring (default DefaultTraceCap). When the
	// ring is full the oldest spans are overwritten; the exporter reports
	// how many were dropped.
	TraceCap int
	// Metrics attaches the per-socket telemetry samplers.
	Metrics bool
	// MetricsTick is the simulated-time sampling interval (default
	// DefaultMetricsTick).
	MetricsTick sim.Duration
}

// TraceOn reports whether span tracing is requested (nil-safe).
func (o *Options) TraceOn() bool { return o != nil && o.Trace }

// MetricsOn reports whether telemetry sampling is requested (nil-safe).
func (o *Options) MetricsOn() bool { return o != nil && o.Metrics }

// Cap returns the configured trace ring capacity with the default applied.
func (o *Options) Cap() int {
	if o == nil || o.TraceCap <= 0 {
		return DefaultTraceCap
	}
	return o.TraceCap
}

// Tick returns the configured telemetry tick with the default applied.
func (o *Options) Tick() sim.Duration {
	if o == nil || o.MetricsTick <= 0 {
		return DefaultMetricsTick
	}
	return o.MetricsTick
}
