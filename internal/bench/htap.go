package bench

import (
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// HTAPSpec declares the fig-htap sweep: hybrid (transactions + analytical
// scans) workloads on the conventional and bionic machines at every socket
// count. Each workload's Make must return a core.Analytics implementation
// (the htap mixed workloads); the point attaches it as the run's analytical
// half, so both machines pay for projection maintenance and scans — the
// conventional one out of host memory on OLTP cores, the bionic one on the
// FPGA side off the overlay merge path.
//
// Like the scaling sweep this is weak scaling: offered load and database
// size grow with the machine.
type HTAPSpec struct {
	// Sockets are the socket counts to measure (default 1, 2, 4, 8, 16).
	Sockets []int
	// Workloads is the hybrid workload axis (required).
	Workloads []WorkloadSpec
	// Engines optionally replaces the default engine axis (conventional
	// and bionic — the figure's two machines).
	Engines []ScalingEngine

	// TerminalsPerSocket is the closed-loop OLTP clients per socket
	// (default 32; the analytical clients are the workload's own knob).
	TerminalsPerSocket int
	// PartitionsPerSocket is the bionic partitions per socket (default:
	// the config's cores per socket).
	PartitionsPerSocket int
	// Window is the bionic in-flight window (default 8).
	Window int
	// ShardedLog runs every point on a machine with per-socket log
	// devices, so the freshness vector has one entry per socket.
	ShardedLog bool
	// Obs attaches the flight recorder to every point (see
	// core.RunConfig.Obs); results stay bit-identical.
	Obs *obs.Options

	Seeds   []uint64
	Warmup  sim.Duration
	Measure sim.Duration
	Drain   sim.Duration
}

// HTAPEngines returns the fig-htap engine axis: the two machines the paper
// contrasts, conventional and fully-offloaded bionic.
func HTAPEngines() []ScalingEngine {
	return []ScalingEngine{
		{Name: "conventional", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return ConventionalOn(cfg)
		}},
		{Name: "bionic", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return BionicOn(cfg, partitions, core.AllOffloads(), window)
		}},
	}
}

// Points expands the spec in deterministic order: workload outermost, then
// socket count, engine, seed — the same shape as the scaling sweep.
func (s HTAPSpec) Points() []Point {
	engines := s.Engines
	if len(engines) == 0 {
		engines = HTAPEngines()
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
				spec.Name = eng.Name
				for _, seed := range o.seeds {
					out = append(out, Point{
						Index: len(out), Group: "fig-htap",
						Engine: spec, Workload: wl,
						Terminals: o.terminals * n, Seed: seed, Sockets: n,
						ShardedLog: cfg.ShardedLog(), HTAP: true, Obs: s.Obs,
						Warmup: o.warmup, Measure: o.measure, Drain: s.Drain,
					})
				}
			}
		}
	}
	return out
}

// Run executes the HTAP sweep; see Run.
func (s HTAPSpec) Run(opt Options) []Result { return Run(s.Points(), opt) }

// HTAPTable renders HTAP results as the fig-htap table: transactional
// throughput and energy next to scan bandwidth and freshness, one row per
// point.
func HTAPTable(results []Result) *stats.Table {
	t := stats.NewTable("workload", "engine", ">sockets", ">terminals",
		">tps", ">uJ/txn", ">scans", ">scan MB/s", ">stale max", ">stale mean", ">commits")
	for _, r := range results {
		p := r.Point
		if r.Err != nil {
			t.Row(p.Workload.Name, p.Engine.Name, fmt.Sprintf("%d", p.Sockets),
				fmt.Sprintf("%d", p.Terminals), "error: "+r.Err.Error(), "", "", "", "", "", "")
			continue
		}
		res := r.Res
		scans, mbps, staleMax, staleMean := "-", "-", "-", "-"
		if sc := res.Scan; sc != nil {
			scans = fmt.Sprintf("%d", sc.Scans)
			mbps = fmt.Sprintf("%.1f", float64(sc.Bytes)/1e6/p.Measure.Seconds())
			staleMax = sc.StaleMax.String()
			staleMean = sc.StaleMean().String()
		}
		t.Row(p.Workload.Name, p.Engine.Name,
			fmt.Sprintf("%d", p.Sockets),
			fmt.Sprintf("%d", p.Terminals),
			fmt.Sprintf("%.0f", res.TPS),
			fmt.Sprintf("%.1f", res.JoulesPerTxn*1e6),
			scans, mbps, staleMax, staleMean,
			fmt.Sprintf("%d", res.Commits))
	}
	return t
}
