// Package bench is the experiment-sweep subsystem: one declarative grid of
// workload x sockets x engine x terminals x seed that expands into
// measurement points and fans them out across a worker pool. Every point
// runs in its own sim.Env, so a parallel sweep is bit-identical to the same
// grid run serially — the pool changes wall-clock time, never results.
// cmd/bionicbench's figures, the ablation, the sweep, the scale-out, HTAP,
// recovery and failover experiments all declare a Grid; results render as
// tables (stats.Table) or as one structured JSON document (emit.go).
package bench

import (
	"fmt"
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
// per run with that run's private environment, the point's machine and
// workload, and the point's DORA partition count across the machine; it
// must build everything fresh so runs share no state.
type EngineSpec struct {
	Name string
	Make func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine
}

// Conventional returns the shared-everything 2PL baseline spec.
func Conventional() EngineSpec {
	return EngineSpec{Name: "conventional", Make: func(env *sim.Env, cfg *platform.Config, wl core.Workload, _ int) core.Engine {
		return core.NewConventional(env, cfg, wl.Tables())
	}}
}

// DORA returns the software data-oriented engine spec.
func DORA() EngineSpec {
	return EngineSpec{Name: "dora", Make: func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine {
		return core.NewDORA(env, cfg, wl.Tables(), wl.Scheme(partitions))
	}}
}

// Bionic returns a bionic engine spec with the given offload subset and an
// in-flight window of 8 actions per partition.
func Bionic(off core.Offloads) EngineSpec {
	return EngineSpec{Name: "bionic[" + off.String() + "]", Make: func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine {
		return core.NewBionic(env, cfg, wl.Tables(), wl.Scheme(partitions), off, 8)
	}}
}

// Engines returns the scale-out experiments' engine axis: conventional,
// DORA and the fully-offloaded bionic engine, whose rows name the curve
// ("bionic") rather than the offload list.
func Engines() []EngineSpec {
	bionic := Bionic(core.AllOffloads())
	bionic.Name = "bionic"
	return []EngineSpec{Conventional(), DORA(), bionic}
}

// WorkloadSpec names one workload constructor in the grid. Make is called
// once per run with the point's socket count, so every run owns a private
// workload instance (workload state like TPC-C's partition memo must not be
// shared across the pool) and a weak-scaled workload can grow its database
// with the machine.
type WorkloadSpec struct {
	Name string
	Make func(sockets int) core.Workload
}

// Grid declares a sweep: the cross product of every axis. Zero axes get
// defaults (one socket, Terminals {64}, Seeds {42}) and zero windows get the
// DefaultRunConfig windows, so only the interesting axes need declaring.
type Grid struct {
	// Group names the experiment the grid belongs to; it prefixes JSON
	// result names so points from different grids stay distinguishable
	// when one invocation collects several experiments.
	Group string

	Engines   []EngineSpec
	Workloads []WorkloadSpec
	// Sockets is the machine axis: each entry runs the HC2 socket scaled
	// out to that many sockets. Empty runs the paper's one-socket machine
	// and leaves the points unannotated in names and digests.
	Sockets []int
	// Terminals are the closed-loop clients per socket, so offered load
	// grows with the machine (weak scaling).
	Terminals []int
	// PartitionsPerSocket is the DORA/bionic partition count per socket
	// (0 = one per core).
	PartitionsPerSocket int
	// ShardedLog gives every socket its own log stream and device. It is
	// structurally inert on one socket, where points stay unannotated.
	ShardedLog bool
	// Repl ships the log to Replicas replica machines under that commit-wait
	// mode; ReplNone builds no replication machinery.
	Repl     stats.ReplMode
	Replicas int
	// HTAP attaches each point's workload as the run's analytical half; the
	// workload must implement core.Analytics (the htap mixed workloads do).
	HTAP  bool
	Seeds []uint64

	// Obs attaches the flight recorder to every point (see
	// core.RunConfig.Obs). Strictly out-of-band: digests are bit-identical
	// with it on or off, which the observability equivalence test pins.
	Obs *obs.Options

	// Measurement windows shared by every point.
	Warmup  sim.Duration
	Measure sim.Duration
}

// Point is one expanded measurement: a fully-specified run on a
// fully-specified machine.
type Point struct {
	Index     int    // position in the expanded grid
	Group     string // owning experiment (may be empty)
	Engine    EngineSpec
	Workload  WorkloadSpec
	Terminals int // across the machine
	Seed      uint64

	// Sockets is the machine's socket count; 0 is the paper's one-socket
	// machine, unannotated in names and digests.
	Sockets int
	// Partitions is the DORA/bionic partition count across the machine
	// (0 = one per core).
	Partitions int
	// ShardedLog runs the machine with per-socket log devices (always false
	// on one socket, where the layout does not exist).
	ShardedLog bool
	// HTAP attaches the workload as the run's analytical half.
	HTAP bool
	// Repl is the log-replication mode (stats.ReplNone = unreplicated) and
	// Replicas the replica machine count it ships to.
	Repl     stats.ReplMode
	Replicas int

	// Obs attaches the flight recorder to this run (see core.RunConfig.Obs).
	// Out-of-band: every simulated field of the result is bit-identical with
	// it on or off.
	Obs *obs.Options

	Warmup  sim.Duration
	Measure sim.Duration
}

// Points expands the grid in deterministic order: workload outermost, then
// sockets, engine, terminals, seed — the row order the figure tables print
// in.
func (g Grid) Points() []Point {
	def := core.DefaultRunConfig()
	sockets := g.Sockets
	if len(sockets) == 0 {
		sockets = []int{0}
	}
	terminals := g.Terminals
	if len(terminals) == 0 {
		terminals = []int{def.Terminals}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{def.Seed}
	}
	warmup, measure := g.Warmup, g.Measure
	if warmup <= 0 {
		warmup = def.Warmup
	}
	if measure <= 0 {
		measure = def.Measure
	}
	replicas := 0
	if g.Repl != stats.ReplNone {
		replicas = g.Replicas
	}
	var out []Point
	for _, wl := range g.Workloads {
		for _, n := range sockets {
			m := max(n, 1)
			for _, eng := range g.Engines {
				for _, t := range terminals {
					for _, seed := range seeds {
						out = append(out, Point{
							Index: len(out), Group: g.Group, Engine: eng, Workload: wl,
							Terminals: t * m, Seed: seed,
							Sockets: n, Partitions: g.PartitionsPerSocket * m,
							ShardedLog: g.ShardedLog && m > 1, HTAP: g.HTAP,
							Repl: g.Repl, Replicas: replicas, Obs: g.Obs,
							Warmup: warmup, Measure: measure,
						})
					}
				}
			}
		}
	}
	return out
}

// build returns the point's private workload and the engine constructor
// core.Run and core.Open take. It is the one place a point's machine is
// stated: the HC2 socket scaled out to Sockets, with per-socket log devices
// when ShardedLog, shipping its log to Replicas replicas when Repl names a
// mode.
func (p Point) build() (core.Workload, func(env *sim.Env) core.Engine, error) {
	if p.Terminals < 0 {
		return nil, nil, fmt.Errorf("point %s/%s: %d terminals", p.Workload.Name, p.Engine.Name, p.Terminals)
	}
	if p.Repl != stats.ReplNone && p.Replicas < 1 {
		return nil, nil, fmt.Errorf("replication mode %s with %d replicas", p.Repl, p.Replicas)
	}
	cfg := platform.HC2Scaled(p.Sockets)
	cfg.LogDevPerSocket = p.ShardedLog
	cfg.Replicas, cfg.ReplMode = p.Replicas, p.Repl
	partitions := p.Partitions
	if partitions <= 0 {
		partitions = cfg.TotalCores()
	}
	wl := p.Workload.Make(cfg.NumSockets())
	return wl, func(env *sim.Env) core.Engine { return p.Engine.Make(env, cfg, wl, partitions) }, nil
}

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
	wl, mk, err := p.build()
	if err != nil {
		return Result{Point: p, Err: err}
	}
	cfg := core.RunConfig{
		Terminals: p.Terminals,
		Warmup:    p.Warmup,
		Measure:   p.Measure,
		Seed:      p.Seed,
		Obs:       p.Obs,
	}
	if p.HTAP {
		a, ok := wl.(core.Analytics)
		if !ok {
			return Result{Point: p, Err: fmt.Errorf("HTAP point: workload %s has no analytical half", p.Workload.Name)}
		}
		cfg.Analytics = a
	}
	start := time.Now()
	res, err := core.Run(cfg, wl, mk)
	return Result{Point: p, Res: res, Err: err, Wall: time.Since(start)}
}

// Options shapes a sweep execution.
type Options struct {
	// Parallel is the worker-pool size; <= 0 uses GOMAXPROCS.
	Parallel int
}

// Run fans the points out across the pool and returns results in grid
// order. Each point's Index is rewritten to its slice position, so
// concatenated point lists stay addressable.
func Run(points []Point, opt Options) []Result {
	out := make([]Result, len(points))
	ForEach(len(points), opt.Parallel, func(i int) {
		p := points[i]
		p.Index = i
		out[i] = p.Run()
	})
	return out
}

// ForEach runs fn(0..n-1) across a pool of parallel workers (<= 0 uses
// GOMAXPROCS) and returns when all calls complete. It is the primitive
// under Run, exposed for sweeps that are not core.Run-shaped (the crash
// experiments, the probe saturation microbenchmark); fn must confine its
// effects to slot i.
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
