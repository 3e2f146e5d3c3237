// Command bionicbench regenerates every figure of the paper and the
// auxiliary claim experiments from the simulated system:
//
//	bionicbench -fig 1          Figure 1: dark-silicon utilization curves
//	bionicbench -fig 2          Figure 2: platform latency/bandwidth check
//	bionicbench -fig 3          Figure 3: DORA time breakdown (TATP
//	                            UpdateSubscriberData, TPC-C StockLevel)
//	bionicbench -fig 4          Figure 4: conventional vs DORA vs bionic
//	bionicbench -ablation       C2: offload lattice on the TATP mix
//	bionicbench -saturation     C1: probe-engine outstanding-request sweep
//	bionicbench -sweep          engine x workload (TATP, TPC-C, YCSB) grid
//	bionicbench -fig-scaling    multi-socket weak scaling, 1 -> 16 sockets
//	bionicbench -fig-htap       hybrid sweep: txn throughput vs scan
//	                            bandwidth vs energy, conventional vs bionic
//	bionicbench -fig-failover   replication sweep: steady-state commit tax
//	                            per mode (async/sync/quorum), then a faulted
//	                            primary kill and the replica's measured
//	                            failover
//	bionicbench -fig-anatomy    per-transaction latency anatomy: p50/p99 per
//	                            phase (queue/lock/exec/cross-shard/
//	                            durability/replication) per engine at
//	                            1/4/16 sockets
//
// The flight recorder rides along with any run-backed experiment:
// -trace-out FILE writes each run's span trace as Chrome trace_event JSON
// (open in chrome://tracing or Perfetto; one lane per socket) and
// -metrics-out FILE writes the per-socket telemetry time series (CSV, or
// JSON when the path ends in .json). Both are strictly out of band:
// simulated results and digests are bit-identical with them on or off.
//
// Every measurement executes through the internal/bench sweep subsystem:
// runs fan out across -parallel workers (default GOMAXPROCS), each in its
// own simulation environment, so parallel results are bit-identical to
// serial ones. -quick shrinks scales for a fast smoke run; -csv emits CSV
// instead of aligned tables; -json FILE additionally writes every
// core.Run-backed measurement of the invocation as structured JSON.
// -sockets N runs the figure/sweep experiments on an N-socket machine
// (and caps the -fig-scaling axis at N); the default 1 is the paper's
// single-socket platform. -replication async|sync|quorum ships the log to
// -replicas replica machines on every run-backed experiment, paying each
// mode's commit-wait tax; the default off builds no replication machinery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bionicdb/internal/bench"
	"bionicdb/internal/core"
	"bionicdb/internal/darksilicon"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"

	"bionicdb/internal/btree"
)

var (
	figFlag     = flag.Int("fig", 0, "regenerate figure 1..4")
	ablation    = flag.Bool("ablation", false, "run the C2 offload ablation")
	saturation  = flag.Bool("saturation", false, "run the C1 probe saturation sweep")
	latencies   = flag.Bool("latencies", false, "print the Section 3 latency taxonomy")
	sweepFlag   = flag.Bool("sweep", false, "run the engine x workload sweep grid")
	figScaling  = flag.Bool("fig-scaling", false, "run the multi-socket scaling sweep (throughput + joules/txn vs sockets)")
	figRecovery = flag.Bool("fig-recovery", false, "run the crash-recovery sweep (replay time + joules vs sockets)")
	figHTAP     = flag.Bool("fig-htap", false, "run the HTAP sweep (txn throughput + scan bandwidth + freshness vs sockets, conventional vs bionic)")
	figFailover = flag.Bool("fig-failover", false, "run the failover sweep (replication tax per mode, then a faulted primary kill and the replica's measured time-to-serving)")
	figAnatomy  = flag.Bool("fig-anatomy", false, "run the latency-anatomy sweep (per-phase p50/p99 per engine and workload at 1/4/16 sockets)")
	traceOut    = flag.String("trace-out", "", "write each run's span trace as Chrome trace_event JSON to this file (index-suffixed when the invocation runs multiple points)")
	metricsOut  = flag.String("metrics-out", "", "write each run's telemetry time series to this file (.json = JSON, else CSV; index-suffixed when multiple points)")
	shardedLog  = flag.Bool("sharded-log", false, "per-socket log shards: give every socket its own log stream and SSD (multi-socket only); -fig-scaling additionally runs the sharded axis next to the central baseline")
	recJSON     = flag.String("recovery-json", "", "write -fig-recovery results as JSON to this file")
	failJSON    = flag.String("failover-json", "", "write -fig-failover results as JSON to this file")
	replication = flag.String("replication", "off", "log-shipping replication mode for the run-backed experiments: off|async|sync|quorum (-fig-failover sweeps all modes unless this narrows it)")
	replicas    = flag.Int("replicas", 2, "replica machines when -replication is on")
	all         = flag.Bool("all", false, "run every experiment")
	quick       = flag.Bool("quick", false, "shrink scales for a fast run")
	csv         = flag.Bool("csv", false, "emit CSV instead of tables")
	jsonOut     = flag.String("json", "", "write sweep results as JSON to this file")
	parallel    = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	seed        = flag.Uint64("seed", 42, "simulation seed")
	seeds       = flag.Int("seeds", 1, "seeds per sweep grid point (seed, seed+1, ...)")
	sockets     = flag.Int("sockets", 1, "CPU sockets: platform size for the figure/sweep experiments, axis cap for -fig-scaling")
	terminals   = flag.Int("terminals", 64, "closed-loop clients")
	measureMs   = flag.Int("measure", 50, "measurement window, simulated ms")
	warmupMs    = flag.Int("warmup", 20, "warmup, simulated ms")
	subscribers = flag.Int("subscribers", 100000, "TATP scale")
	warehouses  = flag.Int("warehouses", 4, "TPC-C scale")
	records     = flag.Int("records", 100000, "YCSB scale")
	cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile  = flag.String("memprofile", "", "sample one allocation per 2 KB during the run and write the allocs profile to this file")
	benchjson   = flag.String("benchjson", "", "write kernel throughput + per-experiment wall-clock JSON to this file")
)

// collected accumulates every bench result of the invocation for -json.
var collected []bench.Result

// kernelEvents/kernelSwitches/kernelWall accumulate the event kernel's
// volume, how much of it resumed a process coroutine, and host wall-clock
// across every run-backed point, for the end-of-run throughput line
// (simulated results never depend on the kernel; events/sec does).
var (
	kernelEvents   uint64
	kernelSwitches uint64
	kernelWall     time.Duration
)

// expWalls accumulates host wall-clock per experiment for -benchjson.
var expWalls []expWall

// expWall is one experiment's host cost: wall-clock, and for experiments
// made of run-backed points the kernel events they executed and how many of
// those switched into a process (the rest ran inline in the dispatch loop).
type expWall struct {
	Name     string  `json:"name"`
	WallMs   float64 `json:"wall_ms"`
	Events   uint64  `json:"events,omitempty"`
	Switches uint64  `json:"switches,omitempty"`
}

// fatal stops any active CPU profile — so the profile file is complete and
// readable even on error exits — prints the error, and exits 1.
func fatal(v any) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}

// timed runs one experiment, recording its host wall-clock.
func timed(name string, fn func()) {
	start, ev0, sw0 := time.Now(), kernelEvents, kernelSwitches
	fn()
	expWalls = append(expWalls, expWall{
		Name: name, WallMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		Events: kernelEvents - ev0, Switches: kernelSwitches - sw0,
	})
}

// kernelStats measures the raw event kernel — a closed set of processes
// timer-stepping through interleaved waits, the hot path under every
// experiment — and reports sustained events/sec and allocations per event.
// One warm-up pass lets pools and rings reach steady state, matching how
// the kernel runs under a long sweep.
func kernelStats() (eventsPerSec, allocsPerEvent float64, events uint64) {
	measure := func() (uint64, time.Duration, uint64) {
		env := sim.NewEnv()
		defer env.Close()
		const procs, steps = 16, 20000
		for i := 0; i < procs; i++ {
			i := i
			env.Spawn("kernel", func(p *sim.Proc) {
				for j := 0; j < steps; j++ {
					p.Wait(sim.Duration(1 + (i+j)%7))
				}
			})
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := env.Run(); err != nil {
			panic(err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		return env.Executed(), wall, m1.Mallocs - m0.Mallocs
	}
	measure() // warm up
	ev, wall, allocs := measure()
	return float64(ev) / wall.Seconds(), float64(allocs) / float64(ev), ev
}

// kernelDoc is the -benchjson document: the perf-trajectory baseline a PR
// compares against (BENCH_kernel.json at the repo root).
type kernelDoc struct {
	Suite string `json:"suite"`
	// The toolchain, the GOMAXPROCS the sections ran under and the host's
	// CPU count: a speed number is only comparable with all three named.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	HostCPUs   int    `json:"host_cpus"`
	Kernel     struct {
		EventsPerSec   float64 `json:"events_per_sec"`
		AllocsPerEvent float64 `json:"allocs_per_event"`
		Events         uint64  `json:"events_measured"`
	} `json:"kernel"`
	Experiments []expWall `json:"experiments"`
}

func writeBenchJSON(path string) error {
	var doc kernelDoc
	doc.Suite = "bionicbench-kernel"
	doc.GoVersion = runtime.Version()
	doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.HostCPUs = runtime.NumCPU()
	doc.Kernel.EventsPerSec, doc.Kernel.AllocsPerEvent, doc.Kernel.Events = kernelStats()
	doc.Experiments = expWalls
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// memProfileRate is the allocation sampling interval under -memprofile. The
// runtime's default, one sample per 512 KB, attributes next to nothing on a
// run whose steady state allocates a kilobyte or two per transaction.
const memProfileRate = 2048

func main() {
	flag.Parse()
	if *memprofile != "" {
		// Before the first allocation worth attributing; the runtime reads
		// the rate at each allocation.
		runtime.MemProfileRate = memProfileRate
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *quick {
		*subscribers = 10000
		*warehouses = 2
		*records = 10000
		*measureMs = 15
		*warmupMs = 5
	}
	ran := false
	if *all || *figFlag == 1 {
		timed("fig1", fig1)
		ran = true
	}
	if *all || *figFlag == 2 {
		timed("fig2", fig2)
		ran = true
	}
	if *all || *figFlag == 3 {
		timed("fig3", fig3)
		ran = true
	}
	if *all || *figFlag == 4 {
		timed("fig4", fig4)
		ran = true
	}
	if *all || *ablation {
		timed("ablation", runAblation)
		ran = true
	}
	if *all || *saturation {
		timed("saturation", runSaturation)
		ran = true
	}
	if *all || *latencies {
		timed("latencies", runLatencies)
		ran = true
	}
	if *all || *sweepFlag {
		timed("sweep", runSweep)
		ran = true
	}
	if *all || *figScaling {
		timed("fig-scaling", runFigScaling)
		ran = true
	}
	if *all || *figRecovery {
		timed("fig-recovery", runFigRecovery)
		ran = true
	}
	if *all || *figHTAP {
		timed("fig-htap", runFigHTAP)
		ran = true
	}
	if *all || *figFailover {
		timed("fig-failover", runFigFailover)
		ran = true
	}
	if *all || *figAnatomy {
		timed("fig-anatomy", runFigAnatomy)
		ran = true
	}
	if !ran {
		pprof.StopCPUProfile()
		flag.Usage()
		os.Exit(2)
	}
	if kernelEvents > 0 && kernelWall > 0 {
		// Host measurement, so stderr: stdout stays byte-identical across
		// runs (the figure-parity check diffs it).
		fmt.Fprintf(os.Stderr, "kernel: %d simulated events (%d process switches), %.2fs summed run wall, %.2fM events/sec\n",
			kernelEvents, kernelSwitches, kernelWall.Seconds(), float64(kernelEvents)/kernelWall.Seconds()/1e6)
	}
	if *benchjson != "" {
		if err := writeBenchJSON(*benchjson); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote kernel bench baseline to %s\n", *benchjson)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // a sample is published by the collection after it
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if len(collected) == 0 {
			fatal(fmt.Sprintf("-json %s: no results to write (the selected experiments run no measurements; use -fig 3, -fig 4, -ablation or -sweep)", *jsonOut))
		}
		if err := bench.WriteJSONFile(*jsonOut, collected); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d results to %s\n", len(collected), *jsonOut)
	}
}

func emit(title string, t *stats.Table) {
	fmt.Printf("### %s\n", title)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
	fmt.Println()
}

// obsOpts returns the flight-recorder options the -trace-out/-metrics-out
// flags ask for, or nil (attach nothing) when neither is given.
func obsOpts() *obs.Options {
	if *traceOut == "" && *metricsOut == "" {
		return nil
	}
	return &obs.Options{Trace: *traceOut != "", Metrics: *metricsOut != ""}
}

// obsSeq numbers observability artifacts across the whole invocation, so
// -all with -trace-out never overwrites one experiment's trace with the
// next's.
var obsSeq int

// suffixPath inserts a running index before the path's extension:
// trace.json -> trace.3.json.
func suffixPath(path string, i int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(path, ext), i, ext)
}

// writeObsArtifacts exports each result's trace and telemetry to the flag
// paths. A single-point invocation writes the paths verbatim; otherwise
// every artifact carries the point's invocation-wide index.
func writeObsArtifacts(results []bench.Result) {
	if *traceOut == "" && *metricsOut == "" {
		return
	}
	single := obsSeq == 0 && len(results) == 1
	for _, r := range results {
		if *traceOut != "" && r.Res != nil && r.Res.Trace != nil {
			path := *traceOut
			if !single {
				path = suffixPath(path, obsSeq)
			}
			if err := obs.WriteTraceFile(path, r.Res.Trace); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" && r.Res != nil && r.Res.Metrics != nil {
			path := *metricsOut
			if !single {
				path = suffixPath(path, obsSeq)
			}
			if err := r.Res.Metrics.WriteMetricsFile(path); err != nil {
				fatal(err)
			}
		}
		obsSeq++
	}
	// Host-side bookkeeping, so stderr: stdout stays byte-identical with
	// the recorder on or off (the figure-parity check diffs it).
	fmt.Fprintf(os.Stderr, "wrote observability artifacts for %d run(s)\n", len(results))
}

// runPoints executes points through the shared pool, records them for
// -json, and fails fast on any run error. When -trace-out/-metrics-out are
// given the flight recorder is attached to every point and its artifacts
// written as the sweep completes.
func runPoints(points []bench.Point) []bench.Result {
	if o := obsOpts(); o != nil {
		for i := range points {
			points[i].Obs = o
		}
	}
	results := bench.Run(points, bench.Options{Parallel: *parallel})
	collected = append(collected, results...)
	for _, r := range results {
		if r.Err != nil {
			fatal(r.Err)
		}
		kernelEvents += r.Res.Events
		kernelSwitches += r.Res.Switches
		kernelWall += r.Wall
	}
	writeObsArtifacts(results)
	return results
}

func windows() (warmup, measure sim.Duration) {
	return sim.Duration(*warmupMs) * sim.Millisecond, sim.Duration(*measureMs) * sim.Millisecond
}

// Workload constructors shared by the figure generators and the sweep.

func tatpSpec() bench.WorkloadSpec {
	n := *subscribers
	return bench.WorkloadSpec{Name: "tatp", Make: func() core.Workload {
		return tatp.New(tatp.Config{Subscribers: n})
	}}
}

func tpccConfig() tpcc.Config {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = *warehouses
	if *quick {
		cfg.CustomersPerDistrict = 600
		cfg.Items = 20000
	}
	return cfg
}

func tpccSpec() bench.WorkloadSpec {
	cfg := tpccConfig()
	return bench.WorkloadSpec{Name: "tpcc", Make: func() core.Workload { return tpcc.New(cfg) }}
}

func ycsbSpec() bench.WorkloadSpec {
	cfg := ycsb.DefaultConfig()
	cfg.Records = *records
	return bench.WorkloadSpec{Name: "ycsb", Make: func() core.Workload { return ycsb.New(cfg) }}
}

// replMode parses -replication, failing fast on an unknown mode.
func replMode() stats.ReplMode {
	m, err := stats.ParseReplMode(*replication)
	if err != nil {
		fatal(err)
	}
	return m
}

// plCfg returns the platform configuration every run-backed experiment
// builds engines on: the HC2 machine, scaled out when -sockets > 1, log-
// sharded when -sharded-log, and replicated when -replication names a mode.
// At the default flags it is byte-for-byte the paper's machine (the
// sharded-log flag is inert on one socket; replication off builds nothing).
func plCfg() *platform.Config {
	cfg := platform.HC2Scaled(*sockets)
	cfg.LogDevPerSocket = *shardedLog
	if m := replMode(); m != stats.ReplNone {
		cfg.Replicas = *replicas
		cfg.ReplMode = m
	}
	return cfg
}

// partitionCount is one DORA partition per core across the machine.
func partitionCount() int { return plCfg().TotalCores() }

// engineSet is the Figure 4 engine family, built on the -sockets machine.
func engineSet() []bench.EngineSpec {
	cfg := plCfg()
	return []bench.EngineSpec{
		bench.ConventionalOn(cfg),
		bench.DORAOn(cfg, partitionCount()),
		bench.BionicOn(cfg, partitionCount(), core.AllOffloads(), 8),
	}
}

// fig1 prints the dark-silicon utilization curves and the power-envelope
// projection.
func fig1() {
	for _, panel := range darksilicon.Figure1Panels() {
		t := stats.NewTable("cores", ">10% serial", ">1% serial", ">0.1% serial", ">0.01% serial")
		for n := 1; n <= panel.Cores; n *= 2 {
			p := darksilicon.Panel{Year: panel.Year, Cores: n, PowerCap: panel.PowerCap}
			row := []any{fmt.Sprintf("%d", n)}
			for _, s := range darksilicon.SerialFractions() {
				row = append(row, darksilicon.FormatPct(darksilicon.PanelUtilization(p, s)))
			}
			t.Row(row...)
		}
		emit(fmt.Sprintf("Figure 1(%c): fraction of chip utilized, %d (%d cores, power cap %s)",
			'a'+rune(panel.Year-2011)/7, panel.Year, panel.Cores, darksilicon.FormatPct(panel.PowerCap)), t)
	}
	t := stats.NewTable("generation", ">usable (30%/gen)", ">usable (50%/gen)")
	for gen := 0; gen <= 4; gen++ {
		t.Row(fmt.Sprintf("2018+%d", gen*2),
			darksilicon.FormatPct(darksilicon.EnvelopeGeneration(gen, 0.3)),
			darksilicon.FormatPct(darksilicon.EnvelopeGeneration(gen, 0.5)))
	}
	emit("Power envelope projection (Section 2)", t)
	lower, faster := darksilicon.EquivalentGains(10, 100000, 10)
	fmt.Printf("joules/op identity: 10x less power -> %.2e J/op; 10x faster -> %.2e J/op\n\n", lower, faster)
}

// fig2 prints the platform characterization vs Figure 2's numbers.
func fig2() {
	t := stats.NewTable("component", ">spec GB/s", ">meas GB/s", ">spec latency", ">meas latency")
	for _, row := range platform.Characterize(platform.HC2()) {
		t.Row(row.Name,
			fmt.Sprintf("%.2f", row.SpecGBps), fmt.Sprintf("%.2f", row.MeasGBps),
			row.SpecLat.String(), row.MeasLat.String())
	}
	emit("Figure 2: CPU/FPGA platform characterization", t)
}

// fig3 prints the DORA software breakdown for the two Figure 3 workloads.
func fig3() {
	warmup, measure := windows()
	n := *subscribers
	tpccCfg := tpccConfig()
	g := bench.Grid{
		Group:   "fig3",
		Repl:    replMode(),
		Engines: []bench.EngineSpec{bench.DORAOn(plCfg(), partitionCount())},
		Workloads: []bench.WorkloadSpec{
			{Name: "tatp-updsubdata", Make: func() core.Workload {
				return tatp.New(tatp.Config{Subscribers: n}).UpdateSubDataOnly()
			}},
			{Name: "tpcc-stocklevel", Make: func() core.Workload {
				return tpcc.New(tpccCfg).StockLevelOnly()
			}},
		},
		Terminals: []int{*terminals},
		Seeds:     []uint64{*seed},
		Warmup:    warmup, Measure: measure,
	}
	results := runPoints(g.Points())
	t := stats.NewTable("component", ">TATP UpdSubData", ">TPCC StockLevel")
	shares := make([][]float64, len(results))
	for i, r := range results {
		total := r.Res.BD.Total()
		shares[i] = make([]float64, stats.NumComponents)
		for _, comp := range stats.Components() {
			if total > 0 {
				shares[i][comp] = float64(r.Res.BD.Get(comp)) / float64(total) * 100
			}
		}
	}
	for _, comp := range stats.Components() {
		t.Row(comp.String(),
			fmt.Sprintf("%.1f%%", shares[0][comp]),
			fmt.Sprintf("%.1f%%", shares[1][comp]))
	}
	emit("Figure 3: CPU time breakdown, DORA software engine", t)
}

// fig4 compares the three engines on both workload mixes.
func fig4() {
	warmup, measure := windows()
	// TPC-C concurrency scales with warehouses (the spec mandates 10
	// terminals per warehouse; 2x that keeps pressure without district
	// convoys), so each workload expands as its own grid.
	var points []bench.Point
	for _, wg := range []struct {
		wl        bench.WorkloadSpec
		terminals int
	}{
		{tatpSpec(), *terminals},
		{tpccSpec(), *warehouses * 20},
	} {
		g := bench.Grid{
			Group:     "fig4",
			Repl:      replMode(),
			Engines:   engineSet(),
			Workloads: []bench.WorkloadSpec{wg.wl},
			Terminals: []int{wg.terminals},
			Seeds:     []uint64{*seed},
			Warmup:    warmup, Measure: measure,
		}
		points = append(points, g.Points()...)
	}
	results := runPoints(points)

	t := stats.NewTable("workload", "engine", ">tps", ">uJ/txn", ">rel J", ">p50", ">p95", ">retries/txn", ">CPU J", ">FPGA J")
	var baseJ float64
	for _, r := range results {
		res := r.Res
		if res.Engine == "conventional" {
			baseJ = res.JoulesPerTxn
		}
		rel := 1.0
		if baseJ > 0 {
			rel = res.JoulesPerTxn / baseJ
		}
		t.Row(res.Workload, res.Engine,
			fmt.Sprintf("%.0f", res.TPS),
			fmt.Sprintf("%.1f", res.JoulesPerTxn*1e6),
			fmt.Sprintf("%.2f", rel),
			res.Latency.Percentile(50).String(),
			res.Latency.Percentile(95).String(),
			fmt.Sprintf("%.3f", res.RetriesPerTxn()),
			fmt.Sprintf("%.1f", (res.Energy.CPUDynamic+res.Energy.CPUIdle)*1e3),
			fmt.Sprintf("%.1f", res.Energy.FPGA*1e3))
	}
	emit("Figure 4: conventional vs DORA vs bionic (energy in mJ over the window)", t)
}

// runAblation sweeps the offload lattice on the TATP mix.
func runAblation() {
	warmup, measure := windows()
	lattice := []core.Offloads{
		{},
		{Queue: true},
		{Log: true},
		{Queue: true, Log: true},
		{Tree: true, Overlay: true},
		{Tree: true, Overlay: true, Log: true},
		core.AllOffloads(),
	}
	engines := make([]bench.EngineSpec, len(lattice))
	for i, off := range lattice {
		spec := bench.BionicOn(plCfg(), partitionCount(), off, 8)
		spec.Name = off.String() // table rows name the subset, not the engine
		engines[i] = spec
	}
	g := bench.Grid{
		Group:     "ablation",
		Repl:      replMode(),
		Engines:   engines,
		Workloads: []bench.WorkloadSpec{tatpSpec()},
		Terminals: []int{*terminals},
		Seeds:     []uint64{*seed},
		Warmup:    warmup, Measure: measure,
	}
	results := runPoints(g.Points())
	t := stats.NewTable("offloads", ">tps", ">uJ/txn", ">p50", ">p95")
	for _, r := range results {
		t.Row(r.Point.Engine.Name,
			fmt.Sprintf("%.0f", r.Res.TPS),
			fmt.Sprintf("%.1f", r.Res.JoulesPerTxn*1e6),
			r.Res.Latency.Percentile(50).String(),
			r.Res.Latency.Percentile(95).String())
	}
	emit("C2 ablation: TATP mix, DORA base plus offload subsets", t)
}

// runSweep runs the full engine x workload grid — TATP, TPC-C and YCSB on
// all three engines — the broad-and-cheap experiment surface the figure
// generators sample corners of.
func runSweep() {
	warmup, measure := windows()
	if *seeds < 1 {
		*seeds = 1
	}
	seedList := make([]uint64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + uint64(i)
	}
	g := bench.Grid{
		Group:     "sweep",
		Repl:      replMode(),
		Engines:   engineSet(),
		Workloads: []bench.WorkloadSpec{tatpSpec(), tpccSpec(), ycsbSpec()},
		Terminals: []int{*terminals},
		Seeds:     seedList,
		Warmup:    warmup, Measure: measure,
	}
	results := runPoints(g.Points())
	emit(fmt.Sprintf("Sweep: %d grid points (engines x workloads x %d seed(s))",
		len(results), len(seedList)), bench.Table(results))
}

// socketAxis returns the socket counts the scale-out experiments sweep:
// 1 -> 16 by powers of two, capped (and extended) by -sockets when given.
func socketAxis() []int {
	maxSockets := 16
	if *sockets > 1 {
		maxSockets = *sockets
	}
	var socks []int
	for _, n := range []int{1, 2, 4, 8, 16} {
		if n <= maxSockets {
			socks = append(socks, n)
		}
	}
	if socks[len(socks)-1] != maxSockets {
		socks = append(socks, maxSockets)
	}
	return socks
}

// perSocketTerminals is the scale-out experiments' offered load per socket.
func perSocketTerminals() int {
	if *quick {
		return 8
	}
	return 32
}

// runFigScaling measures the scale-out story: all three engines on all
// three workloads at 1 -> 16 sockets (weak scaling: terminals and TPC-C
// warehouses grow with the machine; -sockets > 1 caps the axis). The table
// reports throughput, speedup over one socket and joules/txn — the
// committed BENCH_scaling.json baseline is this experiment's -json output.
func runFigScaling() {
	warmup, measure := windows()
	socks := socketAxis()
	// One spec per socket count so the TPC-C database can grow with the
	// machine (warehouses are TPC-C's unit of parallelism; a fixed-size
	// database would measure contention collapse, not engine scaling).
	// With -sharded-log the sharded axis runs next to the central baseline
	// (only where it is structurally different: 2+ sockets), so the table
	// shows exactly what sharding the log lifts.
	var points []bench.Point
	for _, n := range socks {
		tpccCfg := tpccConfig()
		tpccCfg.Warehouses *= n
		spec := bench.ScalingSpec{
			Sockets: []int{n},
			Workloads: []bench.WorkloadSpec{
				tatpSpec(),
				{Name: "tpcc", Make: func() core.Workload { return tpcc.New(tpccCfg) }},
				ycsbSpec(),
			},
			TerminalsPerSocket: perSocketTerminals(),
			Seeds:              []uint64{*seed},
			Warmup:             warmup, Measure: measure,
		}
		points = append(points, spec.Points()...)
		if *shardedLog && n > 1 {
			spec.ShardedLog = true
			points = append(points, spec.Points()...)
		}
	}
	results := runPoints(points)
	emit(fmt.Sprintf("fig-scaling: weak scaling over %v sockets (%s interconnect)",
		socks, platform.HC2().ICTopology), bench.ScalingTable(results))
}

// runFigHTAP measures the hybrid story: the mixed workloads (TPC-C and
// YCSB transactions with analytical range scans over columnar projections)
// on the conventional and bionic machines at 1 -> 16 sockets. Weak scaling
// like fig-scaling: terminals, TPC-C warehouses and YCSB records grow with
// the machine. Sharded logs give the freshness vector one entry per
// socket. The table reports transactional throughput and energy next to
// scan bandwidth and staleness — the committed BENCH_htap.json baseline is
// this experiment's -json output.
func runFigHTAP() {
	warmup, measure := windows()
	socks := socketAxis()
	var points []bench.Point
	for _, n := range socks {
		tpccCfg := tpccConfig()
		tpccCfg.Warehouses *= n
		ycsbCfg := ycsb.DefaultConfig()
		ycsbCfg.Records = *records * n
		spec := bench.HTAPSpec{
			Sockets: []int{n},
			Workloads: []bench.WorkloadSpec{
				{Name: "htap-ycsb", Make: func() core.Workload {
					return htap.NewYCSB(ycsbCfg, htap.DefaultParams())
				}},
				{Name: "htap-tpcc", Make: func() core.Workload {
					return htap.NewTPCC(tpccCfg, htap.DefaultParams())
				}},
			},
			TerminalsPerSocket: perSocketTerminals(),
			ShardedLog:         true,
			Seeds:              []uint64{*seed},
			Warmup:             warmup, Measure: measure,
		}
		points = append(points, spec.Points()...)
	}
	results := runPoints(points)
	emit(fmt.Sprintf("fig-htap: hybrid weak scaling over %v sockets, conventional vs bionic", socks),
		bench.HTAPTable(results))
}

// runFigRecovery measures the durability subsystem's read side: crash a
// sharded-log machine at the end of its measurement window and replay the
// per-socket log shards — serially and one process per shard — timing the
// boot and its joules at each socket count. TPC-C is the workload: it is
// the log-heavy benchmark whose weak scaling the sharded log un-walls.
func runFigRecovery() {
	warmup, measure := windows()
	socks := socketAxis()
	spec := bench.RecoverySpec{
		Sockets: socks,
		Workload: func(n int) bench.WorkloadSpec {
			tpccCfg := tpccConfig()
			tpccCfg.Warehouses *= n
			return bench.WorkloadSpec{Name: "tpcc", Make: func() core.Workload { return tpcc.New(tpccCfg) }}
		},
		ShardedLog:         true,
		TerminalsPerSocket: perSocketTerminals(),
		Seed:               *seed,
		Warmup:             warmup, Measure: measure,
	}
	results := spec.RunRecovery(bench.Options{Parallel: *parallel})
	for _, r := range results {
		if r.Err != nil {
			fatal(r.Err)
		}
	}
	emit(fmt.Sprintf("fig-recovery: crash at measure end, parallel shard replay over %v sockets", socks),
		bench.RecoveryTable(results))
	if *recJSON != "" {
		if err := bench.WriteRecoveryJSONFile(*recJSON, results); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d recovery results to %s\n", len(results), *recJSON)
	}
}

// runFigFailover measures the robustness story: ship the per-socket log
// shards to replica machines under each commit-wait mode, price the mode in
// steady state against the same-socket unreplicated baseline, then kill the
// primary mid-measure under a seed-deterministic fault plan (link lag, a
// partition window, a replica stall) and boot the replica through measured
// parallel recovery. TPC-C is the workload, like fig-recovery: the
// log-heavy benchmark is the one replication taxes hardest. -replication
// narrows the mode axis to baseline-vs-that-mode; the default sweeps all
// three modes. The committed BENCH_failover.json baseline is this
// experiment's -failover-json output.
func runFigFailover() {
	warmup, measure := windows()
	socks := bench.DefaultFailoverSockets()
	if *sockets > 1 {
		socks = socketAxis()
	}
	spec := bench.FailoverSpec{
		Sockets:  socks,
		Replicas: *replicas,
		Workload: func(n int) bench.WorkloadSpec {
			tpccCfg := tpccConfig()
			tpccCfg.Warehouses *= n
			return bench.WorkloadSpec{Name: "tpcc", Make: func() core.Workload { return tpcc.New(tpccCfg) }}
		},
		ShardedLog:         true,
		TerminalsPerSocket: perSocketTerminals(),
		Seed:               *seed,
		Warmup:             warmup, Measure: measure,
	}
	if m := replMode(); m != stats.ReplNone {
		spec.Modes = []stats.ReplMode{stats.ReplNone, m}
	}
	spec.Obs = obsOpts()
	fo, steady := spec.RunFailover(bench.Options{Parallel: *parallel})
	collected = append(collected, steady...)
	for _, r := range fo {
		if r.Err != nil {
			fatal(r.Err)
		}
	}
	writeObsArtifacts(steady)
	emit(fmt.Sprintf("fig-failover: replication tax and measured failover over %v sockets, %d replicas",
		socks, spec.Replicas), bench.FailoverTable(fo))
	if *failJSON != "" {
		if err := bench.WriteFailoverJSONFile(*failJSON, fo); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d failover results to %s\n", len(fo), *failJSON)
	}
}

// anatomySockets is the fig-anatomy socket axis: 1, 4 and 16 — the anchor,
// the knee and the scale-out end of the scaling curves. -quick trims the
// 16-socket end; -sockets > 1 caps (and extends) the axis like socketAxis.
func anatomySockets() []int {
	socks := []int{1, 4, 16}
	if *quick {
		socks = []int{1, 4}
	}
	if *sockets > 1 {
		var out []int
		for _, n := range socks {
			if n <= *sockets {
				out = append(out, n)
			}
		}
		if out[len(out)-1] != *sockets {
			out = append(out, *sockets)
		}
		return out
	}
	return socks
}

// runFigAnatomy prints the per-transaction latency anatomy: where committed
// transactions' time went — partition-queue wait, lock wait, execution, the
// cross-shard decision round, durability fan-in and the replication ack
// wait — per engine and workload across the socket axis, p50/p99/mean per
// phase. The anatomy is always collected by the harness (it is pure
// clock-reading, outside every digest); this experiment surfaces it.
// Phases overlap across a transaction's parallel actions, so shares are of
// summed phase time, not of end-to-end latency.
func runFigAnatomy() {
	warmup, measure := windows()
	socks := anatomySockets()
	var points []bench.Point
	for _, n := range socks {
		tpccCfg := tpccConfig()
		tpccCfg.Warehouses *= n
		spec := bench.ScalingSpec{
			Sockets: []int{n},
			Workloads: []bench.WorkloadSpec{
				tatpSpec(),
				{Name: "tpcc", Make: func() core.Workload { return tpcc.New(tpccCfg) }},
				ycsbSpec(),
			},
			TerminalsPerSocket: perSocketTerminals(),
			ShardedLog:         *shardedLog,
			Seeds:              []uint64{*seed},
			Warmup:             warmup, Measure: measure,
		}
		pts := spec.Points()
		for i := range pts {
			pts[i].Group = "fig-anatomy"
		}
		points = append(points, pts...)
	}
	results := runPoints(points)
	t := stats.NewTable("workload", "engine", ">sockets", "phase",
		">samples", ">p50", ">p99", ">mean", ">share")
	for _, r := range results {
		an := &r.Res.Anatomy
		var total sim.Duration
		for _, ph := range stats.Phases() {
			total += an.Phase(ph).Sum()
		}
		for _, ph := range stats.Phases() {
			h := an.Phase(ph)
			if h.Count() == 0 {
				continue
			}
			share := 0.0
			if total > 0 {
				share = float64(h.Sum()) / float64(total) * 100
			}
			t.Row(r.Point.Workload.Name, r.Point.Engine.Name,
				fmt.Sprintf("%d", r.Point.Sockets), ph.String(),
				fmt.Sprintf("%d", h.Count()),
				h.Percentile(50).String(), h.Percentile(99).String(), h.Mean().String(),
				fmt.Sprintf("%.0f%%", share))
		}
	}
	emit(fmt.Sprintf("fig-anatomy: per-transaction latency anatomy over %v sockets", socks), t)
}

// runSaturation sweeps the probe engine's outstanding-request window. The
// points are independent microbenchmarks, so they fan out through the same
// pool as the grid sweeps.
func runSaturation() {
	windows := []int{1, 2, 4, 8, 12, 16, 24, 32}
	tputs := make([]float64, len(windows))
	utils := make([]float64, len(windows))
	bench.ForEach(len(windows), *parallel, func(i int) {
		tputs[i], utils[i] = probeThroughput(windows[i])
	})
	t := stats.NewTable(">outstanding", ">Mprobes/s", ">pipe util")
	for i, window := range windows {
		t.Row(fmt.Sprintf("%d", window), fmt.Sprintf("%.2f", tputs[i]/1e6), fmt.Sprintf("%.0f%%", utils[i]*100))
	}
	emit("C1: tree-probe engine saturation (Section 5.3: ~a dozen outstanding requests)", t)
}

// runLatencies prints Section 3's latency spectrum — "disk, log, lock wait,
// latch wait, queues, cache miss, jump or branch" — with the modelled value
// of each source and which part of the bionic design addresses it.
func runLatencies() {
	cfg := platform.HC2()
	t := stats.NewTable("latency source", ">modelled", "addressed by (paper section)")
	t.Row("disk I/O", cfg.DiskLat.String(), "FPGA-side files + overlay faulting (5.6)")
	t.Row("log flush (group commit)", (30 * sim.Microsecond).String(), "hw log insertion + async commit (5.4)")
	t.Row("lock wait", "workload-dependent", "DORA entity locks, deferred actions (5.1)")
	t.Row("latch wait", "~node visit", "eliminated by PLP partitioning (5.1)")
	t.Row("queue hop", (2 * sim.Microsecond).String(), "hw queue engine doorbells (5.5)")
	t.Row("interconnect hop (multi-socket)", cfg.ICHopLat.String(), "socket-local routing + RVP cross-shard commit")
	t.Row("PCIe crossing", (2 * cfg.PCIeLat).String(), "asynchrony + posted writes (5.2)")
	t.Row("cache miss (DRAM)", cfg.DRAMMissLat.String(), "moved to pipelined SG-DRAM (5.3)")
	t.Row("LLC hit", cfg.L3Lat.String(), "-")
	t.Row("branch/jump", cfg.CycleTime().String(), "load-compare-branch in fabric (4)")
	emit("Section 3: the OLTP latency spectrum, from 5ms to 400ps", t)
}

func probeThroughput(window int) (perSec float64, util float64) {
	env := sim.NewEnv()
	defer env.Close()
	pl := platform.New(env, platform.HC2())
	eng := treeprobe.New(pl, treeprobe.DefaultConfig())
	tree := btree.New(btree.Config{
		AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocFPGA(8 << 10) },
	})
	var loadKey storage.Arena // the tree copies the keys it keeps
	for i := 0; i < 100000; i++ {
		loadKey.Reset()
		tree.Put(loadKey.Uint64Key(uint64(i)), []byte("row"), nil)
	}
	const probesPerStream = 400
	r := sim.NewRand(*seed)
	done := 0
	for wdx := 0; wdx < window; wdx++ {
		keys := make([][]byte, probesPerStream)
		for i := range keys {
			keys[i] = storage.Uint64Key(uint64(r.Intn(100000)))
		}
		env.Spawn("stream", func(p *sim.Proc) {
			for _, k := range keys {
				eng.ProbeLocal(p, tree, k)
				done++
			}
		})
	}
	if err := env.Run(); err != nil {
		panic(err)
	}
	return sim.PerSecond(int64(done), sim.Duration(env.Now())), eng.Utilization()
}
