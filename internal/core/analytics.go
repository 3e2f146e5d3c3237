package core

import (
	"bionicdb/internal/obs"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Analytics is the attachment point for a hybrid (HTAP) run's analytical
// half. When RunConfig.Analytics is set, Run calls Attach once, after the
// engine is populated and warmed but before any terminal exists, on a
// private random stream split from the run's root — so a pure-OLTP run
// (nil Analytics) consumes exactly the random numbers and schedules exactly
// the events it always did.
//
// Attach builds the analytical subsystem around the live engine: columnar
// projections of the row store, their maintenance path (merge-fed on an
// overlay engine, a refresh daemon elsewhere), and the scan machinery. It
// may spawn daemon processes immediately; scan clients wait for Start.
type Analytics interface {
	Attach(env *sim.Env, eng Engine, r *sim.Rand) AnalyticsRun
}

// AnalyticsRun is one run's attached analytical subsystem.
type AnalyticsRun interface {
	// Start spawns the analytical scan clients. They must stop issuing new
	// scans once *stop is true (the same flag the OLTP terminals watch).
	Start(stop *bool)
	// Snapshot returns the cumulative scan statistics; the harness windows
	// them like every other metric.
	Snapshot() stats.ScanStats
	// Close quiesces analytical daemons. It is called after the drain,
	// before the engine closes.
	Close()
	// SetRecorder attaches the flight-recorder ring the scan clients record
	// into (nil when untraced); host-side only.
	SetRecorder(rec *obs.ShardRec)
}
