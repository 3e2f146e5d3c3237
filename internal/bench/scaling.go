package bench

import (
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// ScalingSpec declares the fig-scaling sweep: the three engines on every
// workload at every socket count, with offered load (terminals) and DORA
// partition count scaling with the machine. Zero fields get defaults, so
// only the axes under study need declaring.
//
// This is weak scaling — load grows with the machine — so a perfectly
// scalable engine shows throughput proportional to sockets at flat
// joules/txn, while a centralized engine flattens as the interconnect and
// its shared structures saturate.
type ScalingSpec struct {
	// Sockets are the socket counts to measure (default 1, 2, 4, 8, 16).
	Sockets []int
	// Workloads is the workload axis (required).
	Workloads []WorkloadSpec
	// Engines optionally replaces the default engine axis. Each entry is
	// instantiated per socket count via its On constructor.
	Engines []ScalingEngine

	// TerminalsPerSocket is the closed-loop clients per socket (default 32).
	TerminalsPerSocket int
	// PartitionsPerSocket is the DORA/bionic partitions per socket
	// (default: the config's cores per socket, one partition per core).
	PartitionsPerSocket int
	// Window is the bionic in-flight window (default 8).
	Window int
	// ShardedLog runs every point on a machine with per-socket log devices
	// (the sharded durability subsystem). Single-socket points are
	// structurally unaffected — the flag only bites at 2+ sockets — so the
	// 1-socket row still anchors the speedup column.
	ShardedLog bool
	// Obs attaches the flight recorder to every point (see
	// core.RunConfig.Obs); results stay bit-identical.
	Obs *obs.Options

	Seeds   []uint64
	Warmup  sim.Duration
	Measure sim.Duration
	Drain   sim.Duration
}

// ScalingEngine builds one engine spec for a given scaled platform config
// and total partition count.
type ScalingEngine struct {
	Name string
	On   func(cfg *platform.Config, partitions, window int) EngineSpec
}

// DefaultScalingEngines returns the standard engine axis: conventional,
// DORA and the fully-offloaded bionic engine.
func DefaultScalingEngines() []ScalingEngine {
	return []ScalingEngine{
		{Name: "conventional", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return ConventionalOn(cfg)
		}},
		{Name: "dora", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return DORAOn(cfg, partitions)
		}},
		{Name: "bionic", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return BionicOn(cfg, partitions, core.AllOffloads(), window)
		}},
	}
}

// DefaultScalingSockets is the 1 -> 16 socket axis of the fig-scaling
// figure.
func DefaultScalingSockets() []int { return []int{1, 2, 4, 8, 16} }

// Points expands the spec into grid points in deterministic order:
// workload outermost, then socket count, engine, seed — so each
// workload's scaling curves print together, engine by engine.
func (s ScalingSpec) Points() []Point {
	engines := s.Engines
	if len(engines) == 0 {
		engines = DefaultScalingEngines()
	}
	o := scaled{sockets: s.Sockets, terminals: s.TerminalsPerSocket, partitions: s.PartitionsPerSocket,
		window: s.Window, seeds: s.Seeds, warmup: s.Warmup, measure: s.Measure,
		shardedLog: s.ShardedLog}.resolve(DefaultScalingSockets())

	var out []Point
	for _, wl := range s.Workloads {
		for _, n := range o.sockets {
			cfg, partitions := o.machine(n)
			for _, eng := range engines {
				spec := eng.On(cfg, partitions, o.window)
				spec.Name = eng.Name // rows name the curve ("bionic"), not the offload list
				for _, seed := range o.seeds {
					out = append(out, Point{
						Index: len(out), Group: "fig-scaling",
						Engine: spec, Workload: wl,
						Terminals: o.terminals * n, Seed: seed, Sockets: n,
						ShardedLog: cfg.ShardedLog(), Obs: s.Obs,
						Warmup: o.warmup, Measure: o.measure, Drain: s.Drain,
					})
				}
			}
		}
	}
	return out
}

// scaled is what the socket-scaled specs (fig-scaling, fig-htap,
// fig-recovery, fig-failover) share, with every default resolved in one
// place.
type scaled struct {
	sockets         []int
	terminals       int // per socket (default 32)
	partitions      int // per socket (default: the config's cores per socket)
	window          int // bionic in-flight window (default 8)
	seeds           []uint64
	warmup, measure sim.Duration
	shardedLog      bool
}

// resolve fills every zero field with its default; defSockets is the
// spec's own socket axis.
func (o scaled) resolve(defSockets []int) scaled {
	def := core.DefaultRunConfig()
	if len(o.sockets) == 0 {
		o.sockets = defSockets
	}
	if o.terminals <= 0 {
		o.terminals = 32
	}
	if o.window <= 0 {
		o.window = 8
	}
	if len(o.seeds) == 0 {
		o.seeds = []uint64{def.Seed}
	}
	if o.warmup <= 0 {
		o.warmup = def.Warmup
	}
	if o.measure <= 0 {
		o.measure = def.Measure
	}
	return o
}

// machine returns the n-socket configuration and its total partition
// count.
func (o scaled) machine(n int) (*platform.Config, int) {
	cfg := platform.HC2Scaled(n)
	cfg.LogDevPerSocket = o.shardedLog
	pps := o.partitions
	if pps <= 0 {
		pps = cfg.Cores
	}
	return cfg, pps * n
}

// oneSeed is a single-seed spec's Seed as a seed axis (nil when unset).
func oneSeed(seed uint64) []uint64 {
	if seed == 0 {
		return nil
	}
	return []uint64{seed}
}

// doraSpec is the crash experiments' default engine: DORA, the software
// sharded log.
func doraSpec(cfg *platform.Config, partitions, window int) EngineSpec {
	return DORAOn(cfg, partitions)
}

// Run executes the scaling sweep; see Run.
func (s ScalingSpec) Run(opt Options) []Result { return Run(s.Points(), opt) }

// logLabel names a point's durability layout in tables.
func logLabel(sharded bool) string {
	if sharded {
		return "sharded"
	}
	return "central"
}

// ScalingTable renders scaling results as the fig-scaling table: one row
// per point with a speedup column relative to the same engine and
// workload at the lowest measured socket count. Sharded-log rows share
// that baseline — a 1-socket machine is identical with the flag on or off
// — so central and sharded curves of one engine are directly comparable.
func ScalingTable(results []Result) *stats.Table {
	t := stats.NewTable("workload", "engine", "log", ">sockets", ">terminals",
		">tps", ">speedup", ">uJ/txn", ">p50", ">p95", ">commits")
	// Baseline tps per (workload, engine): the lowest measured socket
	// count with a usable result, regardless of row order or log layout.
	type curve struct{ wl, eng string }
	type baseline struct {
		sockets int
		tps     float64
	}
	base := map[curve]baseline{}
	for _, r := range results {
		if r.Err != nil || r.Res.TPS <= 0 {
			continue
		}
		k := curve{r.Point.Workload.Name, r.Point.Engine.Name}
		if b, ok := base[k]; !ok || r.Point.Sockets < b.sockets {
			base[k] = baseline{r.Point.Sockets, r.Res.TPS}
		}
	}
	for _, r := range results {
		p := r.Point
		if r.Err != nil {
			t.Row(p.Workload.Name, p.Engine.Name, logLabel(p.ShardedLog), fmt.Sprintf("%d", p.Sockets),
				fmt.Sprintf("%d", p.Terminals), "error: "+r.Err.Error(), "", "", "", "", "")
			continue
		}
		speedup := 0.0
		if b := base[curve{p.Workload.Name, p.Engine.Name}]; b.tps > 0 {
			speedup = r.Res.TPS / b.tps
		}
		t.Row(p.Workload.Name, p.Engine.Name, logLabel(p.ShardedLog),
			fmt.Sprintf("%d", p.Sockets),
			fmt.Sprintf("%d", p.Terminals),
			fmt.Sprintf("%.0f", r.Res.TPS),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f", r.Res.JoulesPerTxn*1e6),
			r.Res.Latency.Percentile(50).String(),
			r.Res.Latency.Percentile(95).String(),
			fmt.Sprintf("%d", r.Res.Commits))
	}
	return t
}
