// Package queueengine models the paper's §5.5 hardware queue-management
// support: QOLB-style on-chip queue primitives that make enqueue and
// dequeue nearly free of coherence traffic. The engine is deliberately
// thin — the paper itself notes hardware "will not magically solve the
// scheduling problem", so scheduling stays in software (package dora) and
// this unit only removes the per-operation overhead.
package queueengine

import "bionicdb/internal/platform"

// Config tunes the unit.
type Config struct {
	// Slots is the number of concurrent queue operations the engine
	// pipelines.
	Slots int
	// OpCycles is the fabric occupancy of one enqueue or dequeue.
	OpCycles int
}

// DefaultConfig returns the calibrated parameters: a 4-wide pipeline at a
// few cycles per operation.
func DefaultConfig() Config { return Config{Slots: 4, OpCycles: 3} }

// Engine is the hardware queue manager.
type Engine struct {
	cfg  Config
	Unit *platform.HWUnit
}

// New creates the queue engine on pl.
func New(pl *platform.Platform, cfg Config) *Engine {
	return &Engine{cfg: cfg, Unit: pl.NewHWUnit("queue-engine", cfg.Slots)}
}

// OpCycles returns the per-operation fabric occupancy for partitions to
// charge.
func (e *Engine) OpCycles() int { return e.cfg.OpCycles }
