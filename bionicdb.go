// Package bionicdb is a simulation-backed reproduction of "The bionic DBMS
// is coming, but what will it look like?" (Johnson & Pandis, CIDR 2013): a
// complete OLTP engine family — conventional shared-everything 2PL,
// data-oriented execution (DORA), and the paper's "bionic" hybrid that
// offloads B+Tree probes, log insertion, queue management and the overlay
// database to modelled FPGA hardware — running on a deterministic
// discrete-event model of the paper's CPU+FPGA platform, with TATP, TPC-C
// and YCSB workloads, joules-per-transaction as a first-class metric, and a
// parallel experiment-sweep subsystem for evaluating design grids.
//
// The package re-exports the supported API surface; see the examples
// directory for usage and DESIGN.md for the system inventory.
package bionicdb

import (
	"fmt"

	"bionicdb/internal/bench"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// Simulated time.
type (
	// Duration is a span of simulated time in picoseconds.
	Duration = sim.Duration
	// Time is an absolute simulated timestamp.
	Time = sim.Time
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Engine API.
type (
	// Engine is a complete transaction-processing system under one cost
	// model (conventional, DORA, or bionic).
	Engine = core.Engine
	// Tx is the coordinator handle a transaction program drives.
	Tx = core.Tx
	// Action is one partition-confined unit of a transaction.
	Action = core.Action
	// AccessCtx is the data interface action bodies program against.
	AccessCtx = core.AccessCtx
	// Arena is where a transaction attempt builds its keys and rows (Tx.Arena,
	// AccessCtx.Arena): reset and reused by the engine per attempt.
	Arena = storage.Arena
	// TxnLogic is a transaction program.
	TxnLogic = core.TxnLogic
	// Terminal is one closed-loop client.
	Terminal = core.Terminal
	// TableDef declares one index-organized table.
	TableDef = core.TableDef
	// PartitionScheme routes keys to DORA partitions and entities.
	PartitionScheme = core.PartitionScheme
	// Offloads selects the bionic engine's hardware units.
	Offloads = core.Offloads
	// Workload is a benchmark: schema, population, mix.
	Workload = core.Workload
	// RunConfig shapes one measurement.
	RunConfig = core.RunConfig
	// Result is one measurement's output: throughput, joules/txn,
	// latency percentiles and the Figure 3 breakdown.
	Result = core.Result
	// PlatformConfig holds every machine-model calibration constant.
	PlatformConfig = platform.Config
	// EnergyReport is a measurement window's joules by hardware domain.
	EnergyReport = platform.EnergyReport
	// Topology is how a multi-socket machine's sockets are wired (ring,
	// full crossbar, or 2D mesh); it sets hops and with them the latency
	// and energy of every cross-socket message.
	Topology = platform.Topology
)

// Interconnect topologies for PlatformConfig.ICTopology.
const (
	TopoRing = platform.TopoRing
	TopoFull = platform.TopoFull
	TopoMesh = platform.TopoMesh
)

// Env is the discrete-event simulation environment engines run in.
type Env = sim.Env

// Proc is a simulated process (a terminal, a daemon, a driver).
type Proc = sim.Proc

// Rand is the deterministic random generator simulations must use.
type Rand = sim.Rand

// NewEnv creates an empty simulation environment.
func NewEnv() *Env { return sim.NewEnv() }

// NewRand creates a seeded deterministic random generator.
func NewRand(seed uint64) *Rand { return sim.NewRand(seed) }

// BreakdownLines renders a Figure 3 component breakdown as aligned text
// lines for quick printing.
func BreakdownLines(bd *stats.Breakdown) []string {
	total := bd.Total()
	out := make([]string, 0, int(stats.NumComponents))
	for _, c := range stats.Components() {
		share := 0.0
		if total > 0 {
			share = float64(bd.Get(c)) / float64(total) * 100
		}
		out = append(out, fmt.Sprintf("%-11s %10v  %5.1f%%", c.String(), bd.Get(c), share))
	}
	return out
}

// HC2 returns the default platform configuration: the Convey HC-2-class
// machine of the paper's Figure 2.
func HC2() *PlatformConfig { return platform.HC2() }

// NewConventional builds the shared-everything 2PL baseline engine.
func NewConventional(env *Env, cfg *PlatformConfig, tables []TableDef) Engine {
	return core.NewConventional(env, cfg, tables)
}

// NewDORA builds the software data-oriented engine (the paper's Figure 3
// baseline).
func NewDORA(env *Env, cfg *PlatformConfig, tables []TableDef, scheme PartitionScheme) Engine {
	return core.NewDORA(env, cfg, tables, scheme)
}

// NewBionic builds the bionic engine: DORA plus the selected hardware
// offloads, with an in-flight window per partition (0 uses the default).
func NewBionic(env *Env, cfg *PlatformConfig, tables []TableDef, scheme PartitionScheme, off Offloads, window int) Engine {
	return core.NewBionic(env, cfg, tables, scheme, off, window)
}

// AllOffloads enables every hardware unit — the full Figure 4 system.
func AllOffloads() Offloads { return core.AllOffloads() }

// HashScheme returns a generic hash partitioning scheme.
func HashScheme(partitions int) PartitionScheme { return core.HashScheme(partitions) }

// Run executes one full measurement: build, populate, warm, measure, drain.
func Run(cfg RunConfig, wl Workload, mk func(env *Env) Engine) (*Result, error) {
	return core.Run(cfg, wl, mk)
}

// Workloads.

// TATPConfig scales the TATP benchmark.
type TATPConfig = tatp.Config

// NewTATP creates the TATP workload (Subscribers <= 0 uses the default
// 100k).
func NewTATP(cfg TATPConfig) *tatp.Workload {
	if cfg.Subscribers <= 0 {
		cfg = tatp.DefaultConfig()
	}
	return tatp.New(cfg)
}

// TPCCConfig scales the TPC-C benchmark.
type TPCCConfig = tpcc.Config

// NewTPCC creates the TPC-C workload (zero config uses the default 4
// warehouses).
func NewTPCC(cfg TPCCConfig) *tpcc.Workload {
	if cfg.Warehouses <= 0 {
		cfg = tpcc.DefaultConfig()
	}
	return tpcc.New(cfg)
}

// YCSBConfig scales and shapes the YCSB workload.
type YCSBConfig = ycsb.Config

// NewYCSB creates the YCSB workload (zero fields use the Workload A
// defaults: 100k records, 50/50 read/update, zipfian 0.99). Preset mixes
// are available as YCSBWorkloadA..F configs.
func NewYCSB(cfg YCSBConfig) *ycsb.Workload { return ycsb.New(cfg) }

// YCSB preset mixes (Cooper et al., SoCC 2010).
var (
	YCSBWorkloadA = ycsb.WorkloadA // 50% read / 50% update
	YCSBWorkloadB = ycsb.WorkloadB // 95% read / 5% update
	YCSBWorkloadC = ycsb.WorkloadC // 100% read
	YCSBWorkloadE = ycsb.WorkloadE // 95% scan / 5% update
	YCSBWorkloadF = ycsb.WorkloadF // 50% read / 50% read-modify-write
)

// Experiment sweeps (the internal/bench subsystem).
type (
	// SweepGrid declares a sweep: the cross product of workloads, socket
	// counts, engines, terminals per socket and seeds, on one machine
	// description (log layout, replication, HTAP) shared by every point.
	SweepGrid = bench.Grid
	// SweepPoint is one fully-specified measurement in a grid.
	SweepPoint = bench.Point
	// SweepResult pairs a point with its measurement and wall-clock cost.
	SweepResult = bench.Result
	// SweepOptions shapes sweep execution (worker-pool size).
	SweepOptions = bench.Options
	// SweepDoc is the one JSON result document: sweep results, then the
	// recovery and failover sections, each omitted when empty.
	SweepDoc = bench.Doc
	// EngineSpec names an engine constructor in a sweep grid.
	EngineSpec = bench.EngineSpec
	// WorkloadSpec names a workload constructor in a sweep grid; Make
	// receives the point's socket count, so a workload can weak-scale.
	WorkloadSpec = bench.WorkloadSpec
)

// Sweep fans the points out across a worker pool (SweepOptions.Parallel;
// 0 = GOMAXPROCS) and returns results in grid order. Every point runs in
// its own simulation environment, so parallel results are bit-identical to
// a serial sweep of the same grid.
func Sweep(points []SweepPoint, opt SweepOptions) []SweepResult {
	return bench.Run(points, opt)
}

// ConventionalSpec is the sweep-grid spec for the 2PL baseline engine.
func ConventionalSpec() EngineSpec { return bench.Conventional() }

// DORASpec is the sweep-grid spec for the software data-oriented engine;
// the point supplies its partition count.
func DORASpec() EngineSpec { return bench.DORA() }

// BionicSpec is the sweep-grid spec for the bionic engine with the given
// offload subset.
func BionicSpec(off Offloads) EngineSpec { return bench.Bionic(off) }

// ScalingTable renders scaling results with per-curve speedup columns.
func ScalingTable(results []SweepResult) *stats.Table { return bench.ScalingTable(results) }

// SweepTable renders sweep results as an aligned table.
func SweepTable(results []SweepResult) *stats.Table { return bench.Table(results) }
