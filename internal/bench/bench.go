// Package bench is the experiment-sweep subsystem: a declarative grid of
// engine constructor x workload x terminals x seed that expands into
// measurement points and fans them out across a worker pool. Every point
// runs core.Run in its own sim.Env, so a parallel sweep is bit-identical
// to the same grid run serially — the pool changes wall-clock time, never
// results. cmd/bionicbench's figure generators, the ablation, the
// saturation sweep and the multi-socket scaling sweep (ScalingSpec,
// scaling.go) all execute through it; results render as tables
// (stats.Table) or structured JSON (emit.go).
package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// EngineSpec names one engine constructor in the grid. Make is called once
// per run with that run's private environment and workload; it must build
// everything (including the platform config) fresh so runs share no state.
type EngineSpec struct {
	Name string
	Make func(env *sim.Env, wl core.Workload) core.Engine
}

// Conventional returns the shared-everything 2PL baseline spec.
func Conventional() EngineSpec { return ConventionalOn(platform.HC2()) }

// ConventionalOn returns the 2PL baseline spec on a specific platform
// configuration (the scaling sweep passes multi-socket configs). cfg is
// read-only after construction, so one config may back many grid points.
func ConventionalOn(cfg *platform.Config) EngineSpec {
	return EngineSpec{Name: "conventional", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewConventional(env, cfg, wl.Tables())
	}}
}

// DORA returns the software data-oriented engine spec.
func DORA(partitions int) EngineSpec { return DORAOn(platform.HC2(), partitions) }

// DORAOn returns the DORA spec on a specific platform configuration.
func DORAOn(cfg *platform.Config, partitions int) EngineSpec {
	return EngineSpec{Name: "dora", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewDORA(env, cfg, wl.Tables(), wl.Scheme(partitions))
	}}
}

// Bionic returns a bionic engine spec with the given offload subset and
// in-flight window.
func Bionic(partitions int, off core.Offloads, window int) EngineSpec {
	return BionicOn(platform.HC2(), partitions, off, window)
}

// BionicOn returns the bionic spec on a specific platform configuration.
func BionicOn(cfg *platform.Config, partitions int, off core.Offloads, window int) EngineSpec {
	return EngineSpec{Name: "bionic[" + off.String() + "]", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewBionic(env, cfg, wl.Tables(), wl.Scheme(partitions), off, window)
	}}
}

// WorkloadSpec names one workload constructor in the grid. Make is called
// once per run so every run owns a private workload instance (workload
// state like TPC-C's partition memo must not be shared across the pool).
type WorkloadSpec struct {
	Name string
	Make func() core.Workload
}

// Grid declares a sweep: the cross product of every axis. Zero axes get
// defaults (Terminals {64}, Seeds {42}) and zero windows get the
// DefaultRunConfig windows, so only the interesting axes need declaring.
type Grid struct {
	// Group names the experiment the grid belongs to; it prefixes JSON
	// result names so points from different grids stay distinguishable
	// when one invocation collects several experiments.
	Group string

	Engines   []EngineSpec
	Workloads []WorkloadSpec
	Terminals []int
	Seeds     []uint64

	// Repl annotates every point with the log-replication mode the engine
	// specs were built with (reporting metadata, like Point.Repl).
	Repl stats.ReplMode

	// Obs attaches the flight recorder to every point (see
	// core.RunConfig.Obs). Strictly out-of-band: digests are bit-identical
	// with it on or off, which the observability equivalence test pins.
	Obs *obs.Options

	// Measurement windows shared by every point.
	Warmup  sim.Duration
	Measure sim.Duration
	Drain   sim.Duration
}

// Point is one expanded measurement: a fully-specified core.Run.
type Point struct {
	Index     int    // position in the expanded grid
	Group     string // owning experiment (may be empty)
	Engine    EngineSpec
	Workload  WorkloadSpec
	Terminals int
	Seed      uint64

	// Sockets annotates the platform socket count the engine spec was
	// built for (scaling sweeps; 0 = unannotated single-socket grids).
	// It is reporting metadata: the socket count itself lives in the
	// platform config captured by Engine.Make.
	Sockets int

	// ShardedLog annotates that the engine spec was built on a machine
	// with per-socket log devices (the sharded durability subsystem).
	// Reporting metadata like Sockets: the knob itself lives in the
	// platform config captured by Engine.Make.
	ShardedLog bool

	// HTAP attaches the workload as the run's analytical half (the
	// workload must implement core.Analytics — the htap mixed workloads
	// do). Plain OLTP points leave it false and run exactly as before.
	HTAP bool

	// Repl annotates the log-replication mode the engine spec was built
	// with (stats.ReplNone = unreplicated). Reporting metadata like
	// Sockets: the mode itself lives in the platform config captured by
	// Engine.Make.
	Repl stats.ReplMode

	// Obs attaches the flight recorder to this run (see core.RunConfig.Obs).
	// Out-of-band: every simulated field of the result is bit-identical with
	// it on or off.
	Obs *obs.Options

	Warmup  sim.Duration
	Measure sim.Duration
	Drain   sim.Duration
}

// Points expands the grid in deterministic order: workload outermost, then
// engine, terminals, seed — the row order the figure tables print in.
func (g *Grid) Points() []Point {
	terminals := g.Terminals
	if len(terminals) == 0 {
		terminals = []int{core.DefaultRunConfig().Terminals}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{core.DefaultRunConfig().Seed}
	}
	warmup, measure := g.Warmup, g.Measure
	if warmup <= 0 {
		warmup = core.DefaultRunConfig().Warmup
	}
	if measure <= 0 {
		measure = core.DefaultRunConfig().Measure
	}
	var out []Point
	for _, wl := range g.Workloads {
		for _, eng := range g.Engines {
			for _, t := range terminals {
				for _, seed := range seeds {
					out = append(out, Point{
						Index: len(out), Group: g.Group, Engine: eng, Workload: wl,
						Terminals: t, Seed: seed, Repl: g.Repl, Obs: g.Obs,
						Warmup: warmup, Measure: measure, Drain: g.Drain,
					})
				}
			}
		}
	}
	return out
}

// Run executes the whole grid; see Run.
func (g *Grid) Run(opt Options) []Result { return Run(g.Points(), opt) }

// Result is one point's outcome: the point that produced it, the
// measurement (nil on error) and the host wall-clock the run took.
type Result struct {
	Point Point
	Res   *core.Result
	Err   error
	Wall  time.Duration
}

// Run executes one point in a fresh environment.
func (p Point) Run() Result {
	wl := p.Workload.Make()
	cfg := core.RunConfig{
		Terminals: p.Terminals,
		Warmup:    p.Warmup,
		Measure:   p.Measure,
		Drain:     p.Drain,
		Seed:      p.Seed,
		Obs:       p.Obs,
	}
	if p.HTAP {
		if a, ok := wl.(core.Analytics); ok {
			cfg.Analytics = a
		}
	}
	start := time.Now()
	res, err := core.Run(cfg, wl, func(env *sim.Env) core.Engine {
		return p.Engine.Make(env, wl)
	})
	return Result{Point: p, Res: res, Err: err, Wall: time.Since(start)}
}

// Options shapes a sweep execution.
type Options struct {
	// Parallel is the worker-pool size; <= 0 uses GOMAXPROCS.
	Parallel int
	// OnResult, when set, observes each result as it completes (calls are
	// serialized but arrive in completion order, not grid order).
	OnResult func(Result)
}

// Run fans the points out across the pool and returns results in grid
// order. Each point's Index is rewritten to its slice position, so
// concatenated point lists stay addressable.
func Run(points []Point, opt Options) []Result {
	out := make([]Result, len(points))
	var mu sync.Mutex
	ForEach(len(points), opt.Parallel, func(i int) {
		p := points[i]
		p.Index = i
		r := p.Run()
		out[i] = r
		if opt.OnResult != nil {
			mu.Lock()
			opt.OnResult(r)
			mu.Unlock()
		}
	})
	return out
}

// ForEach runs fn(0..n-1) across a pool of parallel workers (<= 0 uses
// GOMAXPROCS) and returns when all calls complete. It is the primitive
// under Run, exposed for sweeps that are not core.Run-shaped (the probe
// saturation microbenchmark); fn must confine its effects to slot i.
func ForEach(n, parallel int, fn func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
